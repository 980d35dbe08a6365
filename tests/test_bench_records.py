"""The benchmark records at the repository root.

Every perf change records its before and after numbers in a
``BENCH_<n>.json``; a record is only comparable with the others when it
names the Python version, the arithmetic backend, the two commits, the seeds
and how the parent and change runs were paired.
"""

import json
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
REQUIRED = ("python", "backend", "parent_commit", "commit", "seeds", "pairing")


def _records() -> list[Path]:
    return sorted(p for p in ROOT.glob("BENCH_*.json") if re.fullmatch(r"BENCH_\d+\.json", p.name))


def test_every_bench_record_names_its_setting():
    records = _records()
    assert records
    missing = []
    for path in records:
        record = json.loads(path.read_text(encoding="utf-8"))
        assert isinstance(record, dict), path.name
        missing.extend(f"{path.name}: {key}" for key in REQUIRED if not record.get(key))
    assert missing == []

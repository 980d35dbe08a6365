"""The benchmark records at the repository root.

Every perf change records its before and after numbers in a
``BENCH_<n>.json``; a record is only comparable with the others when it
names the Python version, the arithmetic backend, the two commits, the seeds
and how the parent and change runs were paired.  From ``BENCH_28.json`` on,
a record also states its gain claim (``claim``, null when none is made, else
the workload, the metric, the rule and whether it was met) and what it shows
about regressions (``no_regression``).
"""

import json
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
REQUIRED = ("python", "backend", "parent_commit", "commit", "seeds", "pairing")
# the records that state their claim and regression finding, and what a claim names
STATED_FROM = 28
CLAIM_KEYS = ("workload", "metric", "rule", "met")


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


def test_records_state_their_claim_and_regression_finding():
    records = [p for p in _records() if int(p.stem.split("_")[1]) >= STATED_FROM]
    assert records
    missing = []
    for path in records:
        record = json.loads(path.read_text(encoding="utf-8"))
        missing.extend(f"{path.name}: {key}" for key in ("claim", "no_regression") if key not in record)
        if not record.get("no_regression"):
            missing.append(f"{path.name}: empty no_regression")
        claim = record.get("claim")
        if claim is not None:
            missing.extend(f"{path.name}: claim.{key}" for key in CLAIM_KEYS if key not in claim)
    assert missing == []

"""Every recorded Ext-catalog answer, on the route the benchmark times.

``bench/data/ext_catalog.json`` holds 2000 queries over cyclic3 (absolute
and relative Ext, relative exactness of realized extensions, dtr/trd) with
answers cross-checked on independent routes when it was recorded.  A change
to resolution bases, covers or kernels must leave every answer as it is.
The benchmark's own query runner is loaded from its file and handed the
relrep modules already imported here, so the package is not reloaded.
Every query is asked twice in one process: once on cold atoms, once on the
per-atom caches the first pass filled.
"""

import importlib.util
import json
import sys
from pathlib import Path
from types import SimpleNamespace

from relrep import exact_linalg, homology, relhom, rep
from relrep.path_algebra import AlgebraPresentation, cyclic_quiver

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _workloads():
    spec = importlib.util.spec_from_file_location("ext_catalog_workloads", BENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    # its dataclass looks its module up in sys.modules while the class is built
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


def test_every_catalog_answer_on_the_request_route():
    workloads = _workloads()
    catalog = BENCH / "data" / "ext_catalog.json"
    queries = json.loads(catalog.read_text(encoding="utf-8"))["queries"]
    assert len(queries) == 2000
    rr = SimpleNamespace(rep=rep, homology=homology, relhom=relhom, exact_linalg=exact_linalg)
    algebra = AlgebraPresentation.truncated(cyclic_quiver(3), 5, name="cyclic3")
    for _ in range(2):
        wrong = [
            (n, q, answer)
            for n, q in enumerate(queries)
            if (answer := workloads.run_query(rr, algebra, q)) != q["answer"]
        ]
        assert wrong == []

"""Regenerate ``data/ext_catalog.json``, the recorded answers of ``ext_queries``.

Run from the repository root:  python3 bench/record_ext_catalog.py

The queries come from a fixed generator seed.  Each answer is computed on
the route the benchmark times and again on an independent route the library
already has (injective-side against projective-side Ext, absolute and
relative; the translate swap of criterion 6 for relative exactness; the
inverse translate for dtr/trd).  A query whose routes disagree stops the
recording, since then the program, not the catalog, is at fault.
"""

from __future__ import annotations

import json
import random
import sys
import time

from workloads import EXT_CATALOG, Relrep, run_query

GENERATOR_SEED = 20261017
PER_KIND = 500
ATOMS = (
    [f"S({v})" for v in (1, 2, 3)]
    + [f"P({v})/rad^{k}" for v in (1, 2, 3) for k in (2, 3, 4)]
    + [f"P({v})" for v in (1, 2, 3)]
)


def main() -> int:
    rr = Relrep()
    algebra = rr.path_algebra.AlgebraPresentation.truncated(
        rr.path_algebra.cyclic_quiver(3), 5, name="cyclic3"
    )
    rng = random.Random(GENERATOR_SEED)

    def module_expr() -> str:
        return "+".join(rng.choice(ATOMS) for _ in range(rng.randint(1, 2)))

    def variance() -> str:
        return rng.choice(("covariant", "contravariant"))

    queries = []
    for _ in range(PER_KIND):
        queries.append({"kind": "ext", "i": rng.randint(1, 3), "x": module_expr(), "y": module_expr()})
        queries.append(
            {"kind": "ext_F", "i": rng.randint(1, 2), "c": module_expr(), "a": module_expr(),
             "variance": variance(), "m": module_expr()}
        )
        while True:
            c, a = module_expr(), module_expr()
            dim = rr.homology.ext1_space(
                rr.rep.parse_module_expression(algebra, c), rr.rep.parse_module_expression(algebra, a)
            ).dim
            if dim:
                break
        coords = [0] * dim
        while not any(coords):
            coords = [rng.randint(-2, 2) for _ in range(dim)]
        queries.append(
            {"kind": "rel_exact", "c": c, "a": a, "coords": coords, "variance": variance(),
             "t": module_expr()}
        )
        queries.append({"kind": rng.choice(("dtr", "trd")), "x": module_expr()})

    start = time.perf_counter()
    for q in queries:
        answer = run_query(rr, algebra, q)
        check = run_query(rr, algebra, q, route="check")
        if q["kind"] in ("dtr", "trd"):
            kept = [t for t in q["x"].split("+") if "/" in t or t.startswith("S")]
            dims = [0, 0, 0]
            for term in kept:
                for v, d in enumerate(rr.rep.parse_module_expression(algebra, term).dims):
                    dims[v] += d
            agree = check == (answer, dims)
        else:
            agree = check == answer
        if not agree:
            print(f"routes disagree on {q}: {answer} vs {check}", file=sys.stderr)
            return 1
        q["answer"] = answer
    elapsed = time.perf_counter() - start
    payload = {
        "algebra": "cyclic3 (builtin): cyclic quiver on 3 vertices, paths of length 5 zero",
        "generator_seed": GENERATOR_SEED,
        "queries": queries,
    }
    EXT_CATALOG.write_text(json.dumps(payload, separators=(",", ":")) + "\n", encoding="utf-8")
    print(f"recorded {len(queries)} queries, both routes agree ({elapsed:.1f}s)")
    return 0


if __name__ == "__main__":
    sys.exit(main())

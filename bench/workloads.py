"""The three benchmark workloads.

Each workload is a closed loop with one caller: a request is issued only
after the previous one has returned.  Requests come in blocks of fixed
composition, and the seed fixes the order inside each block (and, for
``theorem``, the order of the summands in each module expression).  A run
issues whole blocks until its time is up, so every run of a workload does
the same mix of work: with runs of a few thousand requests at most, a seeded
sample of the inputs would spread a run's mean cost more than the host does.

- ``theorem``: the headline user path.  Each request is an in-process
  ``relrep verify-theorem`` that loads its algebra fresh, as every CLI
  invocation does.  A block is one pass over three cases.  Mostly ``endo``
  (the structure-constant engine); it also covers ``cli`` and
  ``path_algebra`` at request time.
- ``maxortho_sweep``: the bulk-sweep user.  A block decides every candidate
  Lambda + (subset of non-projective indecomposables) of four truncated
  cyclic Nakayama algebras, in both ``enumeration`` and ``corollary`` mode.
  The algebras and witness lists live for the whole run, so shared atoms
  give cache reads; it does the most elimination and radical work.
- ``ext_queries``: small library queries over cyclic3 on freshly parsed
  modules (``ext_dim``, ``ext_F_dim``, ``ext1_space`` -> ``realize`` ->
  ``is_F_exact``, ``dtr``/``trd``).  A block is the whole recorded catalog
  of 2000 random queries (500 of each kind) in seeded order.  No ``endo`` at
  all, and thousands of tiny eliminations, so per-call overhead dominates;
  fresh modules give the cache-miss side of ``rep.hom_space``.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import itertools
import json
import random
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
DATA = BENCH_DIR / "data"
CYC2_FILE = DATA / "cyc2-trunc4.alg"
EXT_CATALOG = DATA / "ext_catalog.json"


@dataclass
class Request:
    kind: str
    call: Callable[[], Any]
    expected: Any
    check: Callable[[Any, Any], bool] = lambda answer, expected: answer == expected


class Relrep:
    """A fresh import of the relrep package (the setup cost a user pays)."""

    def __init__(self) -> None:
        src = str(ROOT / "src")
        if src not in sys.path:
            sys.path.insert(0, src)
        for name in [n for n in sys.modules if n == "relrep" or n.startswith("relrep.")]:
            del sys.modules[name]
        importlib.invalidate_caches()
        self.path_algebra = importlib.import_module("relrep.path_algebra")
        self.rep = importlib.import_module("relrep.rep")
        self.homology = importlib.import_module("relrep.homology")
        self.relhom = importlib.import_module("relrep.relhom")
        self.endo = importlib.import_module("relrep.endo")
        self.cli = importlib.import_module("relrep.cli")
        self.exact_linalg = importlib.import_module("relrep.exact_linalg")

    @property
    def backend(self) -> str:
        return self.exact_linalg.QQ.__name__


def _shuffled_sum(rng: random.Random, expr: str) -> str:
    terms = expr.split("+")
    rng.shuffle(terms)
    return "+".join(terms)


# -- theorem -------------------------------------------------------------------

M1 = "P(1)+P(2)+P(3)+S(1)+P(3)/rad^2"
M2 = "P(1)+P(2)+P(3)+S(1)+P(1)/rad^2"
C1 = "P(1)+P(2)+S(1)+P(1)/rad^3"
C2 = "P(1)+P(2)+S(2)+P(2)/rad^3"
# (algebra, m1, m2); every case has hypotheses ok and verdict true.  The
# mutated pair M1, M2+P(1)/rad^4 (verdict false) is left out: one request of
# it takes longer than a whole run may.
THEOREM_CASES = [
    ("builtin:cyclic3", M1, M2),
    (str(CYC2_FILE), C1, C2),
    (str(CYC2_FILE), C2, C1),
]
THEOREM_LINES = ("## hypotheses = ok", "## agree = true", "## verdict = true")


class Theorem:
    name = "theorem"

    def __init__(self) -> None:
        self.relrep = Relrep()
        # requests load their algebra themselves; this checks both inputs parse
        self.algebras = [self.relrep.cli.load_algebra(spec)[1] for spec, _, _ in THEOREM_CASES[:2]]

    def blocks(self, seed: int):
        rng = random.Random(seed)
        while True:
            cases = rng.sample(THEOREM_CASES, len(THEOREM_CASES))
            yield [
                self._request(spec, _shuffled_sum(rng, a), _shuffled_sum(rng, b))
                for spec, a, b in cases
            ]

    def _request(self, spec: str, m1: str, m2: str) -> Request:
        argv = ["verify-theorem", spec, m1, m2, "--l", "2"]

        def call():
            out = io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                code = self.relrep.cli.main(argv)
            return code, out.getvalue().splitlines()

        def check(answer, expected):
            code, lines = answer
            return code == 0 and all(line in lines for line in expected)

        return Request("verify-theorem", call, THEOREM_LINES, check)


# -- maxortho_sweep --------------------------------------------------------------

# (vertices, truncation) -> winning extra summands, as sorted dimension
# vectors.  These are criterion 8's table; cyc3-trunc3 has no winners.
# cyc2-trunc4 (64 more candidates) is left out: it alone takes about two
# runs' worth of time.
SWEEP_WINNERS = {
    (2, 2): {((1, 0),), ((0, 1),)},
    (2, 3): set(),
    (3, 2): set(),
    (3, 3): set(),
}


class MaxorthoSweep:
    name = "maxortho_sweep"

    def __init__(self) -> None:
        rr = self.relrep = Relrep()
        self.candidates = []
        for (vertices, bound), winners in SWEEP_WINNERS.items():
            algebra = rr.path_algebra.AlgebraPresentation.truncated(
                rr.path_algebra.cyclic_quiver(vertices), bound, name=f"cyc{vertices}-trunc{bound}"
            )
            witnesses = rr.rep.enumerate_indecomposables_nakayama(algebra)
            lam = rr.rep.regular_module(algebra)
            nonprojective = [x for x in witnesses if x.total_dim < bound]
            for r in range(len(nonprojective) + 1):
                for combo in itertools.combinations(nonprojective, r):
                    key = tuple(sorted(x.dims for x in combo))
                    self.candidates.append((algebra, lam, combo, witnesses, key in winners))

    def blocks(self, seed: int):
        rng = random.Random(seed)
        while True:
            yield [self._request(*c) for c in rng.sample(self.candidates, len(self.candidates))]

    def _request(self, algebra, lam, combo, witnesses, winner: bool) -> Request:
        rr = self.relrep

        def call():
            candidate = rr.rep.direct_sum(algebra, [lam, *combo])
            by_enum = rr.endo.check_maximal_orthogonal(
                candidate, 1, mode="enumeration", witnesses=witnesses
            )
            by_cor = rr.endo.check_maximal_orthogonal(candidate, 1, mode="corollary")
            return by_enum.verdict, by_cor.verdict

        return Request("check-maxortho", call, (winner, winner))


# -- ext_queries -------------------------------------------------------------------

def run_query(rr: Relrep, algebra, query: dict, route: str = "request"):
    """Answer one catalog query.

    ``route="request"`` is what the benchmark times.  ``route="check"`` is the
    independent route the catalog was cross-checked with: injective-side Ext
    (absolute and relative), the translate swap of criterion 6 for relative
    exactness, and the inverse translate for ``dtr``/``trd``.
    """
    parse = lambda expr: rr.rep.parse_module_expression(algebra, expr)
    kind = query["kind"]
    if kind == "ext":
        via = "projective" if route == "request" else "injective"
        return rr.homology.ext_dim(query["i"], parse(query["x"]), parse(query["y"]), via=via)
    if kind == "ext_F":
        m = parse(query["m"])
        functor = (
            rr.relhom.covariant_functor(m)
            if query["variance"] == "covariant"
            else rr.relhom.contravariant_functor(m)
        )
        via = "projective" if route == "request" else "injective"
        return rr.relhom.ext_F_dim(query["i"], parse(query["c"]), parse(query["a"]), functor, via=via)
    if kind == "rel_exact":
        space = rr.homology.ext1_space(parse(query["c"]), parse(query["a"]))
        sequence = space.realize([rr.exact_linalg.QQ(x) for x in query["coords"]])
        tester = parse(query["t"])
        covariant = (query["variance"] == "covariant") == (route == "request")
        if covariant:
            functor = rr.relhom.covariant_functor(tester)
        else:
            functor = rr.relhom.contravariant_functor(rr.homology.dtr(tester))
        return rr.relhom.is_F_exact(sequence, functor)
    if kind in ("dtr", "trd"):
        x = parse(query["x"])
        image = getattr(rr.homology, kind)(x)
        if route == "request":
            return list(image.dims)
        back = getattr(rr.homology, "trd" if kind == "dtr" else "dtr")(image)
        return list(image.dims), list(back.dims)
    raise ValueError(f"unknown query kind {kind!r}")


class ExtQueries:
    name = "ext_queries"

    def __init__(self, catalog: list[dict]) -> None:
        rr = self.relrep = Relrep()
        self.catalog = catalog
        self.algebra = rr.path_algebra.AlgebraPresentation.truncated(
            rr.path_algebra.cyclic_quiver(3), 5, name="cyclic3"
        )
        self.indecomposables = rr.rep.enumerate_indecomposables_nakayama(self.algebra)

    def blocks(self, seed: int):
        rng = random.Random(seed)
        while True:
            yield [self._request(q) for q in rng.sample(self.catalog, len(self.catalog))]

    def _request(self, query: dict) -> Request:
        return Request(
            query["kind"], lambda: run_query(self.relrep, self.algebra, query), query["answer"]
        )


def load_catalog() -> list[dict]:
    return json.loads(EXT_CATALOG.read_text(encoding="utf-8"))["queries"]


WORKLOADS = {cls.name: cls for cls in (Theorem, MaxorthoSweep, ExtQueries)}


def setup(name: str, catalog: list[dict] | None = None):
    if name == ExtQueries.name:
        return ExtQueries(catalog)
    return WORKLOADS[name]()

"""Answers over End(M)s whose atoms are not split local.

Two kinds of atom reach past the split local shortcut of the block route:

- a decomposable parsed atom: ``I(3)/rad^1`` = S(1) + S(2) on A3 with arrows
  1 -> 3 <- 2, whose End is QQ x QQ;
- an indecomposable atom whose End/rad is a field larger than QQ: the
  Kronecker module R with a = I and b = [[0, 2], [1, 0]], whose End is
  QQ(sqrt 2).

For each End(M) the answers are pinned: ``gldim_le`` for n = 0..4, and
``sc_pd_le``, ``sc_injective_dim_le`` (n = 0..4) and ``sc_ext_dims`` (up to
degree 4) on the four sides of Hom(partner, M) and Hom(M, partner).  The
partner of an A3 module is its pair in ``A3_PAIRS``; the partner of R + X
over the Kronecker algebra is X.  The ``gldim-endo`` CLI lines on the
decomposable atom are pinned too.
"""

from __future__ import annotations

import contextlib
import io

import pytest

from relrep.cli import main
from relrep.endo import end_ring, gldim_le, hom_sc_bimodule_sides, sc_ext_dims, sc_injective_dim_le, sc_pd_le
from relrep.exact_linalg import Matrix
from relrep.path_algebra import AlgebraPresentation, Arrow, Quiver
from relrep.rep import Module, direct_sum, parse_module_expression

BOUNDS = range(5)
ZERO = [0, 0, 0, 0]


def _a3_sink() -> AlgebraPresentation:
    """A3 with arrows 1 -> 3 <- 2."""
    return AlgebraPresentation(Quiver(3, [Arrow("a0", 0, 2), Arrow("a1", 1, 2)]), [], 2, name="a3sink")


def _kronecker() -> AlgebraPresentation:
    return AlgebraPresentation(Quiver(2, [Arrow("a", 0, 1), Arrow("b", 0, 1)]), [], 2, name="kronecker")


def _root_two(alg: AlgebraPresentation) -> Module:
    """The regular Kronecker module at the irreducible x^2 - 2: End = QQ(sqrt 2)."""
    return Module(alg, (2, 2), [Matrix.identity(2), Matrix(2, 2, [[0, 2], [1, 0]])])


def _bits(text: str) -> list[bool]:
    return [c == "T" for c in text]


# (pd bits, id bits, Ext dims) of the sides, in the order
# Hom(partner, M) over End(M), its dual over End(partner),
# Hom(M, partner) over End(partner), its dual over End(M)
A3_SIDES = [("TTTTT", "FFTTT", ZERO), ("FFTTT", "TTTTT", ZERO)] * 2

A3_PAIRS = [
    ("P(1)+P(2)+P(3)+I(3)/rad^1", "P(1)+P(2)+P(3)+S(1)+S(2)"),
    ("P(1)+P(2)+P(3)+I(3)+I(3)/rad^1", "P(1)+P(2)+P(3)+I(3)+S(1)+S(2)"),
    ("P(1)+P(3)+I(3)/rad^1", "P(1)+P(3)+S(1)+S(2)"),
]

# X, with gldim bits of End(R + X) and the sides against X
KRONECKER = [
    (
        "P(1)+P(2)",
        "FFTTT",
        [("TTTTT", "FTTTT", ZERO), ("FTTTT", "FTTTT", [6, 0, 0, 0]), ("TTTTT", "FTTTT", ZERO), ("FFTTT", "TTTTT", ZERO)],
    ),
    (
        "P(1)+P(2)+I(1)+I(2)",
        "FFFTT",
        [
            ("TTTTT", "FFFTT", ZERO),
            ("FFFTT", "FTTTT", [6, 0, 0, 0]),
            ("FTTTT", "FFFTT", [6, 0, 0, 0]),
            ("FFFTT", "TTTTT", ZERO),
        ],
    ),
    *(
        (x, "FTTTT", [("TTTTT", "FTTTT", ZERO), ("TTTTT", "TTTTT", ZERO), ("TTTTT", "TTTTT", ZERO), ("FTTTT", "TTTTT", ZERO)])
        for x in ("P(2)", "S(1)", "I(2)")
    ),
]


def _assert_answers(m: Module, partner: Module, gldim: str, sides: list) -> None:
    g = end_ring(m)
    assert [gldim_le(g, n) for n in BOUNDS] == _bits(gldim)
    built = [*hom_sc_bimodule_sides(partner, m), *hom_sc_bimodule_sides(m, partner)]
    answers = [
        (
            [sc_pd_le(x.algebra, x, n) for n in BOUNDS],
            [sc_injective_dim_le(x.algebra, x, n) for n in BOUNDS],
            sc_ext_dims(x.algebra, x, x, 4),
        )
        for x in built
    ]
    assert answers == [(_bits(pd), _bits(inj), ext) for pd, inj, ext in sides]


@pytest.mark.parametrize("atom_expr, split_expr", A3_PAIRS)
def test_a_decomposable_atom(atom_expr, split_expr):
    alg = _a3_sink()
    atom, split = (parse_module_expression(alg, e) for e in (atom_expr, split_expr))
    _assert_answers(atom, split, "FFTTT", A3_SIDES)
    _assert_answers(split, atom, "FFTTT", A3_SIDES)


@pytest.mark.parametrize("expr, gldim, sides", KRONECKER, ids=[case[0] for case in KRONECKER])
def test_an_atom_whose_end_is_a_quadratic_field(expr, gldim, sides):
    alg = _kronecker()
    x = parse_module_expression(alg, expr)
    _assert_answers(direct_sum(alg, [_root_two(alg), x]), x, gldim, sides)


A3_SINK_TEXT = """[quiver]
vertices = 3
a0: 1 -> 3
a1: 2 -> 3

[relations]
truncate = 2

[meta]
name = a3sink
"""


@pytest.mark.parametrize("bound", BOUNDS)
def test_gldim_endo_lines_on_the_decomposable_atom(tmp_path, bound):
    path = tmp_path / "a3sink.alg"
    path.write_text(A3_SINK_TEXT)
    module = "P(1)+P(2)+P(3)+I(3)/rad^1"
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["gldim-endo", str(path), module, "--bound", str(bound)])
    verdict = bound >= 2
    assert code == (0 if verdict else 1)
    assert out.getvalue().splitlines() == [
        f"endomorphism algebra dimension 9; global dimension <= {bound}: {verdict}",
        "## command = gldim-endo",
        "## algebra = a3sink",
        f"## module = {module}",
        f"## bound = {bound}",
        "## end-dim = 9",
        f"## verdict = {str(verdict).lower()}",
    ]

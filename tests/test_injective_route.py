"""Injective dimension over an algebra itself, and condition (d) without an
opposite algebra.

``sc_injective_dim_le(g, x, n)`` reads id x <= n off Ext^(n+1)(S, x) = 0
for every simple S, over the chains of the simple tops that ``gldim_le``
resolves.  ``sc_reference`` keeps the route it replaced, pd of the dual
over an opposite algebra built from the product table (id_A x =
pd_(A^op) Dx); the two must agree for n = 0..4.  Condition (d) reads the
End(m2)^op side of Hom(m2, m1) off its dual over End(m2), so a
``verify-theorem`` call builds End(m1) and End(m2) and no derived algebra.
Off Nakayama, a decomposable parsed atom is split into its local parts, so
End(M) stays on the block route and ``gldim_le`` reads no Hom complex (there
is no split test); it must answer as End(M) with the atom's summands.
"""

import contextlib
import io

import pytest

import sc_reference as ref
from conftest import M1_EXPR, M2_EXPR
from relrep import endo
from relrep.cli import main
from relrep.endo import (
    StructureConstantAlgebra,
    _Chain,
    end_ring,
    gldim_le,
    hom_sc_bimodule_sides,
    sc_ext_dims,
    sc_injective_dim_le,
)
from relrep.path_algebra import AlgebraPresentation, Arrow, Quiver, cyclic_quiver
from relrep.rep import parse_module_expression

from test_block_tables import _sweep_candidates
from test_endo import MUTATED_EXPR, _linear_end
from test_graded_chains import _mixed
from test_sc_resolutions import C1_EXPR, C2_EXPR, MUTATED_M2_EXPR

BOUNDS = range(5)


def _assert_reference_bounds(g: StructureConstantAlgebra, x, bounds=BOUNDS) -> list:
    """id x <= n for n in ``bounds``, checked against ``sc_reference``'s pd
    of the dual over the opposite, every bound read off one chain."""
    answers = [sc_injective_dim_le(g, x, n) for n in bounds]
    if x.dim == 0:
        assert answers == [True] * len(bounds)
    else:
        chain = ref.FullRadicalChain(ref.opposite(g), ref.dual_sc_module(x))
        assert answers == [ref.pd_le_on_chain(chain, n) for n in bounds]
    return answers


def _a3_sink() -> AlgebraPresentation:
    """A3 with arrows 1 -> 3 <- 2."""
    return AlgebraPresentation(Quiver(3, [Arrow("a0", 0, 2), Arrow("a1", 1, 2)]), [], 2, name="a3sink")


# End(M) with the decomposable parsed atom I(3)/rad^1 = S(1)+S(2), and with
# its two summands in its place
A3_PAIRS = [
    ("P(1)+P(2)+P(3)+I(3)/rad^1", "P(1)+P(2)+P(3)+S(1)+S(2)"),
    ("P(1)+P(2)+P(3)+I(3)+I(3)/rad^1", "P(1)+P(2)+P(3)+I(3)+S(1)+S(2)"),
    ("P(1)+P(3)+I(3)/rad^1", "P(1)+P(3)+S(1)+S(2)"),
]


@pytest.fixture(scope="module")
def cyc2_4():
    return AlgebraPresentation.truncated(cyclic_quiver(2), 4, name="cyc2-trunc4")


@pytest.fixture(scope="module")
def theorem_pairs(m1, m2, cyc3_5, cyc2_4):
    """The theorem pairs, the mutated pairs and a pair with repeated atom
    classes (neither End algebra is basic), (m1, m2) each."""
    c1, c2 = (parse_module_expression(cyc2_4, e) for e in (C1_EXPR, C2_EXPR))
    mutated, mutated2, r1, r2 = (
        parse_module_expression(cyc3_5, e)
        for e in (MUTATED_EXPR, MUTATED_M2_EXPR, "P(1)+P(1)+S(1)+P(2)/rad^2+P(2)/rad^2", "P(1)+P(2)+S(1)+S(1)+P(3)/rad^3")
    )
    return [(m1, m2), (c1, c2), (c2, c1), (m1, mutated), (m1, mutated2), (r1, r2)]


class TestAgainstTheOpposite:
    def test_both_sides_of_the_theorem_pairs(self, theorem_pairs):
        for m1, m2 in theorem_pairs:
            side1, side2 = hom_sc_bimodule_sides(m2, m1)
            assert side1.algebra is end_ring(m1) and side2.algebra is end_ring(m2)
            for side in (side1, side2):
                _assert_reference_bounds(side.algebra, side)
            # the End(m2) side is the dual of Hom(m2, m1) over End(m2)^op
            g2 = side2.algebra
            undualized = ref.dual_sc_module(side2)
            assert sc_ext_dims(g2, side2, side2, 4) == ref.sc_ext_dims(ref.opposite(g2), undualized, undualized, 4)

    def test_regular_and_semisimple_modules_of_the_sweep(self):
        candidates = _sweep_candidates()
        assert len(candidates) == 156
        verdicts = set()
        for m in candidates:
            g = end_ring(m)
            for x in (ref.regular_sc_module(g), ref.semisimple_quotient_module(g)):
                verdicts.add(tuple(_assert_reference_bounds(g, x)))
        # injective dimensions 0, 2, 3, 4 and more than 4 all occur
        assert verdicts == {tuple(n >= d for n in BOUNDS) for d in (0, 2, 3, 4, 5)}

    def test_upper_triangular_algebras(self):
        # End(Λ) of linear A2 and A3: ut2 and ut3
        for g in (_linear_end(2), _linear_end(3)):
            assert ref.check_associativity(g) and ref.check_unit(g)
            regular, quot = ref.regular_sc_module(g), ref.semisimple_quotient_module(g)
            # hereditary and not semisimple: id of each module is at most 1,
            # and exactly 1 for the regular module
            assert _assert_reference_bounds(g, regular) == [False, True, True, True, True]
            assert _assert_reference_bounds(g, quot) == [False, True, True, True, True]

    def test_algebras_in_a_basis_that_mixes_vertices(self):
        # free covers grow by about dim A per level: as in test_graded_chains,
        # only ut2 and the smallest sweep algebra stay at desk scale
        # the library takes no such algebra: the reference's answers over it
        # must be the library's over the algebra it came from
        originals = [_linear_end(2), end_ring(_sweep_candidates()[0])]
        assert [g.dim for g in originals] == [3, 4]
        for g in originals:
            mixed = _mixed(g)
            assert mixed.idempotents == (mixed.unit,)
            for make in (ref.regular_sc_module, ref.semisimple_quotient_module):
                chain = ref.FullRadicalChain(ref.opposite(mixed), ref.dual_sc_module(make(mixed)))
                assert [ref.pd_le_on_chain(chain, n) for n in BOUNDS] == [
                    sc_injective_dim_le(g, make(g), n) for n in BOUNDS
                ]

    def test_end_algebras_off_nakayama(self):
        alg = _a3_sink()
        checked = 0
        for atom_expr, split_expr in A3_PAIRS[:2]:
            atom, split = (parse_module_expression(alg, e) for e in (atom_expr, split_expr))
            for m, partner in ((atom, split), (split, atom)):
                g = end_ring(m)
                over_g = [hom_sc_bimodule_sides(partner, m)[0], hom_sc_bimodule_sides(m, partner)[1]]
                for x in (ref.regular_sc_module(g), ref.semisimple_quotient_module(g), *over_g):
                    assert x.algebra is g
                    _assert_reference_bounds(g, x)
                    checked += 1
        assert checked == 16


def test_the_injective_route_reads_the_simple_top_chains(cyc3_5):
    # the top chains gldim_le built are the ones read: no new chain tables
    # and no new chain
    g = end_ring(parse_module_expression(cyc3_5, M1_EXPR))
    assert gldim_le(g, 4)
    tables = endo._chain_tables(g)
    chains = endo._simple_chains(g)[1]
    assert sc_injective_dim_le(g, ref.regular_sc_module(g), 4)
    assert endo._chain_tables(g) is tables
    assert all(a is b for a, b in zip(endo._simple_chains(g)[1], chains))


CYC2_TEXT = """[quiver]
vertices = 2
a0: 1 -> 2
a1: 2 -> 1

[relations]
truncate = 4

[meta]
name = cyc2-trunc4
"""


def test_verify_theorem_builds_no_derived_algebra(tmp_path, monkeypatch):
    cyc2 = tmp_path / "cyc2-trunc4.alg"
    cyc2.write_text(CYC2_TEXT)
    # every algebra is built through the constructor, one derived from
    # another (an opposite, a basic reduction) included
    built = []
    real_init = StructureConstantAlgebra.__init__
    monkeypatch.setattr(StructureConstantAlgebra, "__init__", lambda g, *args: built.append(g) or real_init(g, *args))
    cases = [
        ("builtin:cyclic3", M1_EXPR, M2_EXPR, 0),
        (str(cyc2), C1_EXPR, C2_EXPR, 0),
        (str(cyc2), C2_EXPR, C1_EXPR, 0),
        ("builtin:cyclic3", M1_EXPR, MUTATED_EXPR, 1),
    ]
    for spec, e1, e2, code in cases:
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["verify-theorem", spec, e1, e2, "--l", "2"]) == code
    # each call loads its algebra afresh, so it builds End(m1) and End(m2),
    # and no derived algebra
    assert len(built) == 2 * len(cases)
    assert all(ref.on_blocks(g) for g in built)
    assert not hasattr(StructureConstantAlgebra, "opposite")
    assert not hasattr(StructureConstantAlgebra, "from_sparse")
    assert not hasattr(StructureConstantAlgebra, "mult")


class TestSplitTestOffNakayama:
    def test_a_decomposable_atom_answers_as_its_summands(self, monkeypatch):
        calls = []
        real = _Chain.hom_complex_dims_and_ranks
        monkeypatch.setattr(_Chain, "hom_complex_dims_and_ranks", lambda *args: calls.append(1) or real(*args))
        alg = _a3_sink()
        for atom_expr, split_expr in A3_PAIRS:
            atom, split = (end_ring(parse_module_expression(alg, e)) for e in (atom_expr, split_expr))
            # I(3)/rad^1 is one atom that is not local: End(M) is laid out
            # over its local parts S(1) and S(2), on the block route
            assert ref.on_blocks(atom) and ref.on_blocks(split)
            assert len(atom.piece_members) == len(split.piece_members)
            calls.clear()
            verdicts = [gldim_le(atom, n) for n in BOUNDS]
            # a split test would read a Hom complex: there is none
            assert calls == []
            assert verdicts == [gldim_le(split, n) for n in BOUNDS] == [False, False, True, True, True]

"""Verdicts over an End(M) whose atoms repeat an isomorphism class.

Every verdict the engine reads off End(M) is Morita invariant: the global
dimension, and the Ext groups, projective and injective dimensions of the
two sides of Hom(m2, m1) that condition (d) asks about.  So an End(M) whose
atoms repeat a class is resolved over its basic algebra, End of one atom per
class.  These answers were recorded by the route that cut the basic algebra
out of End(M)'s product table; every later route must give them unchanged.

The corpus: over cyc3-trunc5, cyc2-trunc3, cyc2-trunc4 and cyc3-trunc3,
Λ⊕DΛ and Λ plus four sums with a repeated atom class (20 End(M)s); both
sides of Hom(m2, m1) for three pairs of them per algebra; and condition (d)
on three pairs over cyc3-trunc5 whose atoms repeat.
"""

import pytest

import sc_reference as ref
from conftest import M1_EXPR, M2_EXPR
from relrep import endo
from relrep.endo import (
    end_ring,
    gldim_le,
    hom_sc_bimodule_sides,
    sc_ext_dims,
    sc_injective_dim_le,
    sc_pd_le,
)
from relrep.path_algebra import AlgebraPresentation, cyclic_quiver
from relrep.rep import parse_module_expression

# name -> (quiver vertices, truncation)
ALGEBRAS = {"cyc3-trunc5": (3, 5), "cyc2-trunc3": (2, 3), "cyc2-trunc4": (2, 4), "cyc3-trunc3": (3, 3)}

# (algebra, extra, piece classes of End(Λ + extra), least n <= 6 with gldim <= n, or None):
# each module of the corpus is Λ = P(1)+...+P(n) plus an extra, "DΛ" standing for I(1)+...+I(n)
ENDS = [
    ("cyc3-trunc5", "DΛ", (0, 1, 2, 2, 0, 1), None),
    ("cyc3-trunc5", "P(1)", (0, 1, 2, 0), None),
    ("cyc3-trunc5", "S(1)+S(1)", (0, 1, 2, 3, 3), None),
    ("cyc3-trunc5", "S(2)+P(1)/rad^2+P(1)/rad^2", (0, 1, 2, 3, 4, 4), 4),
    ("cyc3-trunc5", "P(2)/rad^2+S(1)+P(2)/rad^2+S(1)", (0, 1, 2, 3, 4, 3, 4), None),
    ("cyc2-trunc3", "DΛ", (0, 1, 0, 1), None),
    ("cyc2-trunc3", "P(1)", (0, 1, 0), None),
    ("cyc2-trunc3", "S(1)+S(1)", (0, 1, 2, 2), 4),
    ("cyc2-trunc3", "S(2)+P(1)/rad^2+P(1)/rad^2", (0, 1, 2, 3, 3), 3),
    ("cyc2-trunc3", "P(2)/rad^2+S(1)+P(2)/rad^2+S(1)", (0, 1, 2, 3, 2, 3), 3),
    ("cyc2-trunc4", "DΛ", (0, 1, 1, 0), None),
    ("cyc2-trunc4", "P(1)", (0, 1, 0), None),
    ("cyc2-trunc4", "S(1)+S(1)", (0, 1, 2, 2), None),
    ("cyc2-trunc4", "S(2)+P(1)/rad^2+P(1)/rad^2", (0, 1, 2, 3, 3), 4),
    ("cyc2-trunc4", "P(2)/rad^2+S(1)+P(2)/rad^2+S(1)", (0, 1, 2, 3, 2, 3), 4),
    ("cyc3-trunc3", "DΛ", (0, 1, 2, 1, 2, 0), None),
    ("cyc3-trunc3", "P(1)", (0, 1, 2, 0), None),
    ("cyc3-trunc3", "S(1)+S(1)", (0, 1, 2, 3, 3), None),
    ("cyc3-trunc3", "S(2)+P(1)/rad^2+P(1)/rad^2", (0, 1, 2, 3, 4, 4), 4),
    ("cyc3-trunc3", "P(2)/rad^2+S(1)+P(2)/rad^2+S(1)", (0, 1, 2, 3, 4, 3, 4), None),
]

# (algebra, extra of m1, extra of m2, side over End(m1), side over End(m2)):
# each side is (least n <= 4 with pd <= n, least n <= 4 with id <= n,
# dim Ext^i(side, side) for i = 1..4), None past 4
SIDES = [
    ("cyc3-trunc5", "P(1)", "S(1)+S(1)", (None, None, [0, 0, 4, 0]), (0, 0, [0, 0, 0, 0])),
    (
        "cyc3-trunc5",
        "S(2)+P(1)/rad^2+P(1)/rad^2",
        "P(2)/rad^2+S(1)+P(2)/rad^2+S(1)",
        (2, 4, [4, 4, 0, 0]),
        (None, None, [0, 6, 10, 4]),
    ),
    ("cyc3-trunc5", "P(2)/rad^2+S(1)+P(2)/rad^2+S(1)", "DΛ", (0, 0, [0, 0, 0, 0]), (None, None, [8, 8, 8, 4])),
    ("cyc2-trunc3", "P(1)", "S(1)+S(1)", (None, None, [0, 0, 4, 4]), (0, 0, [0, 0, 0, 0])),
    (
        "cyc2-trunc3",
        "S(2)+P(1)/rad^2+P(1)/rad^2",
        "P(2)/rad^2+S(1)+P(2)/rad^2+S(1)",
        (1, 2, [0, 0, 0, 0]),
        (2, 1, [0, 0, 0, 0]),
    ),
    ("cyc2-trunc3", "P(2)/rad^2+S(1)+P(2)/rad^2+S(1)", "DΛ", (0, 0, [0, 0, 0, 0]), (None, None, [4, 4, 12, 12])),
    ("cyc2-trunc4", "P(1)", "S(1)+S(1)", (None, None, [0, 4, 0, 4]), (0, 0, [0, 0, 0, 0])),
    (
        "cyc2-trunc4",
        "S(2)+P(1)/rad^2+P(1)/rad^2",
        "P(2)/rad^2+S(1)+P(2)/rad^2+S(1)",
        (2, 2, [0, 0, 0, 0]),
        (2, 2, [0, 0, 0, 0]),
    ),
    ("cyc2-trunc4", "P(2)/rad^2+S(1)+P(2)/rad^2+S(1)", "DΛ", (0, 0, [0, 0, 0, 0]), (None, None, [8, 12, 8, 12])),
    ("cyc3-trunc3", "P(1)", "S(1)+S(1)", (None, None, [0, 4, 0, 4]), (0, 0, [0, 0, 0, 0])),
    (
        "cyc3-trunc3",
        "S(2)+P(1)/rad^2+P(1)/rad^2",
        "P(2)/rad^2+S(1)+P(2)/rad^2+S(1)",
        (2, 3, [4, 0, 0, 0]),
        (None, None, [0, 6, 0, 6]),
    ),
    ("cyc3-trunc3", "P(2)/rad^2+S(1)+P(2)/rad^2+S(1)", "DΛ", (0, 0, [0, 0, 0, 0]), (None, None, [8, 8, 8, 8])),
]

# (m1, m2) over cyc3-trunc5 with a repeated atom class on one side or both, l = 2
CONDITION_D = [
    (M1_EXPR + "+S(1)", M2_EXPR),
    (M1_EXPR, M2_EXPR + "+P(1)/rad^2"),
    (M1_EXPR + "+P(3)/rad^2", M2_EXPR + "+S(1)+P(1)"),
]


def _algebra(name: str) -> AlgebraPresentation:
    vertices, truncation = ALGEBRAS[name]
    return AlgebraPresentation.truncated(cyclic_quiver(vertices), truncation, name=name)


def _module(alg: AlgebraPresentation, extra: str):
    """Λ + ``extra`` over ``alg``, parsed afresh."""
    vertices = range(1, alg.quiver.vertex_count + 1)
    if extra == "DΛ":
        extra = "+".join(f"I({v})" for v in vertices)
    return parse_module_expression(alg, "+".join(f"P({v})" for v in vertices) + "+" + extra)


def _up_from(least, count: int) -> list:
    """The verdicts "dim <= n" for n < count of a dimension ``least`` (None: past count - 1)."""
    return [least is not None and n >= least for n in range(count)]


@pytest.fixture(scope="module")
def algebras():
    return {name: _algebra(name) for name in ALGEBRAS}


@pytest.mark.parametrize("name, extra, classes, gldim", ENDS)
def test_global_dimension(algebras, name, extra, classes, gldim):
    g = end_ring(_module(algebras[name], extra))
    assert g.piece_classes == classes
    assert len(set(classes)) < len(classes)
    assert [gldim_le(g, n) for n in range(7)] == _up_from(gldim, 7)


@pytest.mark.parametrize("name, extra1, extra2, over_m1, over_m2", SIDES)
def test_both_sides_of_hom(algebras, name, extra1, extra2, over_m1, over_m2):
    alg = algebras[name]
    sides = hom_sc_bimodule_sides(_module(alg, extra2), _module(alg, extra1))
    for side, (pd, injective, exts) in zip(sides, (over_m1, over_m2)):
        g = side.algebra
        assert ref.check_module(side)
        assert [sc_pd_le(g, side, n) for n in range(5)] == _up_from(pd, 5)
        assert [sc_injective_dim_le(g, side, n) for n in range(5)] == _up_from(injective, 5)
        assert sc_ext_dims(g, side, side, 4) == exts


@pytest.mark.parametrize("e1, e2", CONDITION_D)
def test_condition_d_with_repeated_atoms(cyc3_5, e1, e2):
    m1, m2 = (parse_module_expression(cyc3_5, e) for e in (e1, e2))
    assert any(endo._reduce_to_basic(end_ring(m))[1] is not None for m in (m1, m2))
    side = {"ext_dims": [0, 0, 0, 0], "injective_dimension_ok": True}
    assert endo._condition_d(m1, m2, 2) == (True, {"over-End(m1)": side, "over-End(m2)-op": side})


def test_the_basic_algebra_is_the_corner_of_the_product_table(algebras):
    # end_ring builds the basic algebra from one atom per class; the
    # reference cuts eps·A·eps out of End(M)'s product table
    on_blocks = 0
    for name, extra, _, _ in ENDS:
        g = end_ring(_module(algebras[name], extra))
        basic, transport = endo._reduce_to_basic(g)
        corner, cut = ref.reduce_to_basic(g)
        assert basic is not g and corner is not g
        assert (ref.tensor(basic), basic.unit, basic.idempotents, basic.piece_members) == (
            corner.mult,
            corner.unit,
            corner.idempotents,
            corner.piece_members,
        )
        on_blocks += ref.on_blocks(basic)
        for x in (ref.regular_sc_module(g), ref.semisimple_quotient_module(g)):
            ours, theirs = transport(x), cut(x)
            assert (ours.action, ours.grading) == (theirs.action, theirs.grading)
            assert ref.check_module(ours)
    assert on_blocks == len(ENDS)


def test_the_corpus_builds_each_algebra_once_and_reads_no_hom_complex_in_its_bounds(monkeypatch):
    # the library has no product table, generic chain tables or trace form
    # of a whole End(M) (tests/test_source_hygiene.py): these are counted here
    counts = {"split tests": 0}

    def counting(name, real):
        def wrapped(*args, **kwargs):
            counts[name] += 1
            return real(*args, **kwargs)

        return wrapped

    built = []
    real_init = endo.StructureConstantAlgebra.__init__
    monkeypatch.setattr(endo.StructureConstantAlgebra, "__init__", lambda g, *args: built.append(g) or real_init(g, *args))
    # fresh algebras: every End(M) and every atom pair's hom space is built here
    fresh = {name: _algebra(name) for name in ALGEBRAS}
    modules = []

    def bounds(check, g, x, count):
        # gldim_le and sc_pd_le read every answer off the kernels: no split
        # test reads a Hom complex
        real = endo._Chain.hom_complex_dims_and_ranks
        monkeypatch.setattr(endo._Chain, "hom_complex_dims_and_ranks", counting("split tests", real))
        answers = [check(g, n) if x is None else check(g, x, n) for n in range(count)]
        monkeypatch.setattr(endo._Chain, "hom_complex_dims_and_ranks", real)
        return answers

    for name, extra, _, gldim in ENDS:
        modules.append(_module(fresh[name], extra))
        assert bounds(gldim_le, end_ring(modules[-1]), None, 7) == _up_from(gldim, 7)
    for name, extra1, extra2, over_m1, over_m2 in SIDES:
        modules += [_module(fresh[name], extra2), _module(fresh[name], extra1)]
        for side, (pd, injective, exts) in zip(hom_sc_bimodule_sides(*modules[-2:]), (over_m1, over_m2)):
            g = side.algebra
            assert bounds(sc_pd_le, g, side, 5) == _up_from(pd, 5)
            assert [sc_injective_dim_le(g, side, n) for n in range(5)] == _up_from(injective, 5)
            assert sc_ext_dims(g, side, side, 4) == exts
    cyclic3 = _algebra("cyc3-trunc5")
    for e1, e2 in CONDITION_D:
        modules += [parse_module_expression(cyclic3, e) for e in (e1, e2)]
        assert endo._condition_d(*modules[-2:], 2)[0]
    assert counts == {"split tests": 0}
    # each End(M), and the basic algebra of each End(M) that repeats a class
    reduced = [endo._reduce_to_basic(end_ring(m))[1] is not None for m in modules]
    assert len(built) == len(modules) + sum(reduced)
    assert sum(reduced) == len(modules) - 2


def test_only_the_basic_algebras_build_atom_triples(monkeypatch):
    # an End(M) that repeats a class is resolved over its basic algebra, so
    # end_ring builds none of its atom-triple records, and resolving the 20
    # End(M)s over fresh algebras builds only their basic algebras' (352
    # composition-column builds when the basic algebras are built alone)
    built = []
    real = endo._sparse_columns
    monkeypatch.setattr(endo, "_sparse_columns", lambda *args: built.append(args) or real(*args))
    fresh = {name: _algebra(name) for name in ALGEBRAS}
    algebras = [end_ring(_module(fresh[name], extra)) for name, extra, _, _ in ENDS]
    assert built == []
    for g, (_, _, _, gldim) in zip(algebras, ENDS):
        assert [gldim_le(g, n) for n in range(7)] == _up_from(gldim, 7)
    assert 0 < len(built) <= 352

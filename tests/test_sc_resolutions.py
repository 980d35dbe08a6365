"""Structure-constant resolutions against their reference route.

``relrep.endo`` spans the radical of each kernel by the radical generators
(a lift of a basis of rad/rad²), and starts the chain of every simple top at
its projective cover A e with kernel (rad A)e.  ``sc_reference`` keeps the
route this replaced: every radical basis vector applied to every kernel
vector, and top chains resolved from the top module.  Both must give the
same dimension verdicts, Ext dimensions and chains, level by level, on the
endomorphism algebras the benchmark and the CLI examples exercise.

``sc_reference`` reads the radical of an End(M) off its atom blocks, as
``relrep.endo`` does; on an algebra and on its opposite it must equal the
one computed from scratch off the trace form.
The reference seeds the span of a cover's radical from one RREF, which must
be the span ``relrep.endo`` builds vector by vector.
"""

import itertools
from fractions import Fraction
from functools import partial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sc_reference as ref
from conftest import M1_EXPR, M2_EXPR, zero_module
from relrep.endo import (
    SCModule,
    StructureConstantAlgebra,
    _Chain,
    _Span,
    _pd_le_on_chain,
    _reduce_to_basic,
    _terms,
    _top_chain,
    end_algebra,
    end_ring,
    gldim_le,
    hom_sc_bimodule_sides,
    sc_ext_dims,
    sc_injective_dim_le,
    sc_pd_le,
)
from relrep.exact_linalg import Matrix, hstack
from relrep.path_algebra import AlgebraPresentation, cyclic_quiver
from relrep.rep import (
    Module,
    Morphism,
    cogenerator_module,
    direct_sum,
    dualize,
    enumerate_indecomposables_nakayama,
    flatten_atoms,
    hom_space,
    parse_module_expression,
    proj_module,
    regular_module,
)

from test_endo import MUTATED_EXPR, _linear_end, _upper_triangular_2x2

C1_EXPR = "P(1)+P(2)+S(1)+P(1)/rad^3"
C2_EXPR = "P(1)+P(2)+S(2)+P(2)/rad^3"
CHAIN_DEPTH = 5
BOUNDS = range(5)


@pytest.fixture(scope="module")
def cyc2_4():
    return AlgebraPresentation.truncated(cyclic_quiver(2), 4, name="cyc2-trunc4")


def _sweep_candidates():
    """Lambda plus every subset of the non-projective indecomposables, over
    the four truncated cyclic algebras of the sweep workload."""
    for vertices, bound in ((2, 2), (2, 3), (3, 2), (3, 3)):
        alg = AlgebraPresentation.truncated(
            cyclic_quiver(vertices), bound, name=f"cyc{vertices}-trunc{bound}"
        )
        lam = regular_module(alg)
        nonprojective = [
            x for x in enumerate_indecomposables_nakayama(alg) if x.total_dim < bound
        ]
        for r in range(len(nonprojective) + 1):
            for combo in itertools.combinations(nonprojective, r):
                yield direct_sum(alg, [lam, *combo])


@pytest.fixture(scope="module")
def sweep_algebras():
    return [end_algebra(m)[0] for m in _sweep_candidates()]


@pytest.fixture(scope="module")
def pairs(m1, m2, cyc2_4):
    """The (m1, m2) pairs of the theorem workload."""
    c1 = parse_module_expression(cyc2_4, C1_EXPR)
    c2 = parse_module_expression(cyc2_4, C2_EXPR)
    return [(m1, m2), (c1, c2), (c2, c1)]


@pytest.fixture(scope="module")
def theorem_algebras(pairs):
    """End(m) and End(Dm) = End(m)^op for the modules of two theorem pairs."""
    out = []
    for m1, m2 in pairs[:2]:
        for m in (m1, m2):
            out.extend([end_algebra(m)[0], end_ring(dualize(m))])
    return out


def _without_idempotents(g: StructureConstantAlgebra) -> ref.DenseAlgebra:
    return ref.from_sparse(g.dim, ref.tensor(g), g.unit, name=g.name + " bare")


@pytest.fixture(scope="module")
def bare_pairs(cyc3_5):
    """``(g, bare)``: End(Λ) of linear A2 (ut2), a local and a uniserial
    End(M), and each given no idempotents, so one piece, the unit its only
    idempotent, and its covers free of rank one."""
    local, _ = end_algebra(parse_module_expression(cyc3_5, "P(1)"))
    uniserial, _ = end_algebra(parse_module_expression(cyc3_5, "P(1)+P(1)/rad^2"))
    return [(g, _without_idempotents(g)) for g in (_linear_end(2), local, uniserial)]


@pytest.fixture(scope="module")
def bare_algebras(bare_pairs):
    return [bare for _, bare in bare_pairs]


@pytest.fixture(scope="module")
def structured_algebras(cyc3_5, theorem_algebras):
    both = direct_sum(cyc3_5, [regular_module(cyc3_5), cogenerator_module(cyc3_5)])
    basic, _ = _reduce_to_basic(end_algebra(both)[0])
    return [_upper_triangular_2x2(), basic, *theorem_algebras]


def _minimal(cover) -> bool:
    # a graded cover is minimal, or relrep.endo refuses it when it is built
    return getattr(cover, "minimal", True)


def _kernel_profile(chain, depth: int) -> list[tuple[int, bool]]:
    chain.ensure(depth)
    return [(len(ref.kernel_cols(c)), _minimal(c)) for c in chain.covers[:depth]]


def _assert_top_chains_agree(g: StructureConstantAlgebra) -> None:
    basic, _ = _reduce_to_basic(g)
    for kind in range(len(basic.piece_members)):
        seeded = _top_chain(basic, kind)
        reference = ref.top_chain(basic, kind)
        assert (seeded is None) == (reference is None)
        if seeded is not None:
            assert _kernel_profile(seeded, CHAIN_DEPTH) == _kernel_profile(
                reference, CHAIN_DEPTH
            )


def _level_profile(chain, depth: int) -> list[tuple[int, int, bool]]:
    chain.ensure(depth)
    return [(c.dim, len(ref.kernel_cols(c)), _minimal(c)) for c in chain.covers[:depth]]


def _chain_answers(chain, x) -> tuple:
    """pd(x) <= n for n in BOUNDS, and dim Ext^i(x, x) for i = 1..3, off the
    chain: the reference's Hom complex eliminates for e·x, ours reads it off
    x's grading."""
    if isinstance(chain, ref.FullRadicalChain):
        dims, ranks = chain.hom_complex_dims_and_ranks(4, partial(ref.apply, x), x.dim)
        pd = [ref.pd_le_on_chain(chain, n) for n in BOUNDS]
    else:
        dims, ranks = chain.hom_complex_dims_and_ranks(4, x.action, x.grading)
        pd = [_pd_le_on_chain(chain, n) for n in BOUNDS]
    ext = [dims[i] - ranks[i] - ranks[i - 1] for i in range(1, 4)]
    return pd, ext


def _assert_chains_agree(g: StructureConstantAlgebra, x) -> None:
    # the graded chain solves each kernel vertex by vertex, in another basis
    # than the reference's full-width kernel, so the levels are compared by
    # their invariants: cover and kernel dimensions and the minimality
    # certificate; then the pd and Ext answers read off each chain
    ours, theirs = _Chain(g, x), ref.FullRadicalChain(g, x)
    assert _level_profile(ours, CHAIN_DEPTH) == _level_profile(theirs, CHAIN_DEPTH)
    assert _chain_answers(ours, x) == _chain_answers(theirs, x)


class TestAgainstTheReferenceRoute:
    def test_sweep_endomorphism_algebras(self, sweep_algebras):
        assert len(sweep_algebras) == 92
        for g in sweep_algebras:
            assert [gldim_le(g, n) for n in BOUNDS] == [ref.gldim_le(g, n) for n in BOUNDS]
            _assert_top_chains_agree(g)

    def test_theorem_endomorphism_algebras(self, theorem_algebras):
        for g in theorem_algebras:
            assert [gldim_le(g, n) for n in BOUNDS] == [ref.gldim_le(g, n) for n in BOUNDS]
            _assert_top_chains_agree(g)
            for x in (ref.regular_sc_module(g), ref.semisimple_quotient_module(g)):
                _assert_chains_agree(g, x)
                assert [sc_pd_le(g, x, n) for n in BOUNDS] == [
                    ref.sc_pd_le(g, x, n) for n in BOUNDS
                ]
                assert [sc_injective_dim_le(g, x, n) for n in BOUNDS] == [
                    ref.sc_injective_dim_le(g, x, n) for n in BOUNDS
                ]

    def test_bimodule_sides(self, pairs):
        for m1, m2 in pairs:
            for side in hom_sc_bimodule_sides(m2, m1):
                g = side.algebra
                _assert_chains_agree(g, side)
                assert sc_ext_dims(g, side, side, 4) == ref.sc_ext_dims(g, side, side, 4)
                assert [sc_pd_le(g, side, n) for n in BOUNDS] == [
                    ref.sc_pd_le(g, side, n) for n in BOUNDS
                ]
                assert [sc_injective_dim_le(g, side, n) for n in BOUNDS] == [
                    ref.sc_injective_dim_le(g, side, n) for n in BOUNDS
                ]

    def test_algebras_without_structural_idempotents(self, bare_pairs):
        # the free covers of a one-piece algebra are not minimal: only the
        # reference's split test reads them, and it must answer as the
        # library does over the algebra with its idempotents
        for g, bare in bare_pairs:
            assert bare.idempotents == (bare.unit,)
            assert bare.piece_members == (tuple(range(bare.dim)),) and bare.piece_classes == (0,)
            assert [ref.gldim_le(bare, n) for n in BOUNDS] == [gldim_le(g, n) for n in BOUNDS]
            for x, y in (
                (ref.regular_sc_module(bare), ref.regular_sc_module(g)),
                (ref.semisimple_quotient_module(bare), ref.semisimple_quotient_module(g)),
            ):
                assert [ref.sc_pd_le(bare, x, n) for n in BOUNDS] == [sc_pd_le(g, y, n) for n in BOUNDS]
                assert ref.sc_ext_dims(bare, x, x, 3) == sc_ext_dims(g, y, y, 3)


def _columns_span(cols: list, dim: int) -> Matrix:
    return Matrix.from_columns(cols) if cols else Matrix.zeros(dim, 0)


def _same_span(a: Matrix, b: Matrix) -> bool:
    both = hstack([a, b]).rank()
    return a.rank() == both == b.rank()


def _act_span(x, elements) -> Matrix:
    """The span of e·v over the given algebra elements e and a basis v of x."""
    return _columns_span(
        [col for e in elements for col in ref.element_matrix(x, e).columns()], x.dim
    )


class TestRadicalGenerators:
    def _check(self, g: StructureConstantAlgebra) -> None:
        rad = ref.radical(g)
        cols = rad.columns()
        gens = [list(v) for v in ref.radical_generators(g)]
        square = _columns_span([ref.multiply(g, a, b) for a in cols for b in cols], g.dim)
        # a lift of a basis of rad/rad^2: the right count, and with rad^2 all of rad
        assert len(gens) == rad.cols - square.rank()
        assert all(v in cols for v in gens)
        assert _same_span(hstack([_columns_span(gens, g.dim), square]), rad)
        # L·X = rad·X on the regular module and on every simple top
        tops = [ref._top_of_piece(g, kind) for kind in range(len(g.piece_members))]
        for x in (ref.regular_sc_module(g), *tops):
            assert _same_span(_act_span(x, gens), _act_span(x, cols))

    def test_with_structural_idempotents(self, structured_algebras, sweep_algebras):
        for g in [*structured_algebras, *sweep_algebras]:
            assert len(g.piece_members) > 1
            self._check(g)

    def test_without_structural_idempotents(self, bare_algebras, structured_algebras):
        for g in [*bare_algebras, *map(_without_idempotents, structured_algebras[:3])]:
            assert g.idempotents == (g.unit,) and g.piece_members == (tuple(range(g.dim)),)
            self._check(g)

    def test_semisimple_algebra_has_none(self, cyc3_5):
        g, _ = end_algebra(parse_module_expression(cyc3_5, "S(1)+S(2)"))
        assert ref.radical(g).cols == 0
        assert ref.radical_generators(g) == ()


# -- the radical against the route from scratch, and the seeded cover span ------


MUTATED_M2_EXPR = "P(1)+P(2)+P(3)+S(1)+P(1)/rad^2+P(1)/rad^4"


@pytest.fixture(scope="module")
def radical_corpus(sweep_algebras, pairs, cyc3_5, bare_algebras):
    """The End algebras of the 92 sweep candidates and of the six theorem
    modules (the mutated pair included), ut2 and the idempotent-free algebras."""
    mutated = [parse_module_expression(cyc3_5, e) for e in (MUTATED_EXPR, MUTATED_M2_EXPR)]
    modules = [m for pair in pairs[:2] for m in pair] + mutated
    return [
        *sweep_algebras,
        *(end_algebra(m)[0] for m in modules),
        _upper_triangular_2x2(),
        *bare_algebras,
    ]


class TestRadical:
    def test_both_sides_match_the_route_from_scratch(self, radical_corpus):
        assert len(radical_corpus) == 102
        for g in radical_corpus:
            for side in (g, ref.opposite(g)):
                assert (ref.radical(side), ref.radical_generators(side)) == ref.radical_data(side)


def _theorem_modules(cyc3_5, cyc2_4) -> list[Module]:
    """Fresh copies of the six theorem modules, the mutated pair included."""
    return [
        parse_module_expression(alg, e)
        for alg, exprs in (
            (cyc3_5, (M1_EXPR, M2_EXPR)),
            (cyc2_4, (C1_EXPR, C2_EXPR)),
            (cyc3_5, (MUTATED_EXPR, MUTATED_M2_EXPR)),
        )
        for e in exprs
    ]


def _nested_sums(cyc3_5) -> list[Module]:
    def expr(text):
        return parse_module_expression(cyc3_5, text)

    zero = zero_module(cyc3_5)
    return [
        direct_sum(
            cyc3_5,
            [expr("P(3)/rad^2"), direct_sum(cyc3_5, [expr("S(1)"), zero, expr("P(2)")])],
        ),
        direct_sum(
            cyc3_5, [direct_sum(cyc3_5, [zero, expr("P(1)/rad^2")]), expr("S(3)"), zero]
        ),
        direct_sum(cyc3_5, [zero, direct_sum(cyc3_5, [zero])]),
    ]


class TestEndBasis:
    def test_placed_maps_are_the_composed_ones(self, cyc3_5, cyc2_4):
        modules = [*_sweep_candidates(), *_theorem_modules(cyc3_5, cyc2_4), *_nested_sums(cyc3_5)]
        assert len(modules) == 101
        for m in modules:
            g, basis = end_algebra(m)
            reference = ref.end_basis(m)
            assert len(basis) == len(reference) == g.dim
            for ours, theirs in zip(basis, reference):
                assert ours.source is m and ours.target is m
                for mat in ours.maps:
                    _assert_public_build(mat)
                assert ours.maps == theirs.maps
                assert [[list(map(type, row)) for row in mat._data] for mat in ours.maps] == [
                    [list(map(type, row)) for row in mat._data] for mat in theirs.maps
                ]

    def test_the_product_of_basis_maps_is_their_composite(self, cyc3_5, m1):
        for m in [m1, *_nested_sums(cyc3_5)]:
            g, basis = end_algebra(m)
            for i, x in enumerate(basis):
                for j, y in enumerate(basis):
                    expected = [0] * g.dim
                    for k, c in ref.tensor(g)[i][j]:
                        expected[k] = c
                    combination = sum(
                        (b.scale(c) for b, c in zip(basis, expected)), Morphism.zero(m, m)
                    )
                    assert (x @ y).maps == combination.maps

    def test_the_basis_is_built_on_each_call(self, m1):
        g, first = end_algebra(m1)
        again, second = end_algebra(m1)
        assert again is g
        assert first is not second and first[0] is not second[0]
        assert [b.maps for b in first] == [b.maps for b in second]


def _detected(g: StructureConstantAlgebra) -> tuple:
    """The piece members a hand-built copy of g detects."""
    return ref.from_sparse(g.dim, ref.tensor(g), g.unit, g.idempotents, g.piece_classes).piece_members


class TestPieceMembers:
    """End(M) and its basic reduction know the members of each piece A·e_s,
    the run of blocks (s, t) over all t; a hand-built algebra detects them."""

    @pytest.fixture
    def detections(self, monkeypatch):
        calls = []
        real = ref.DenseAlgebra._detect_members

        def recorded(g):
            calls.append(g.name)
            return real(g)

        monkeypatch.setattr(ref.DenseAlgebra, "_detect_members", recorded)
        return calls

    def test_known_members_are_the_detected_ones(self, radical_corpus):
        assert len(radical_corpus) == 102
        for g in radical_corpus:
            assert g.piece_members == _detected(g)
            assert sorted(m for ms in g.piece_members for m in ms) == list(range(g.dim))

    def test_opposites_detect_theirs_and_basic_reductions_know_theirs(self, cyc3_5, detections):
        m = parse_module_expression(cyc3_5, M1_EXPR)
        g = end_algebra(m)[0]
        assert detections == []
        op = ref.opposite(g)
        assert detections == [op.name]
        # the left ideals of the opposite are the columns of blocks (t, s):
        # not runs of consecutive indices, and not g's members
        assert op.piece_members != g.piece_members
        assert any(list(ms) != list(range(ms[0], ms[-1] + 1)) for ms in op.piece_members)
        both = direct_sum(cyc3_5, [regular_module(cyc3_5), cogenerator_module(cyc3_5)])
        basic, _ = _reduce_to_basic(end_algebra(both)[0])
        assert detections == [op.name]
        assert len(basic.piece_members) == len(basic.idempotents) == 3
        assert basic.piece_members == _detected(basic)


class TestBlockRadical:
    """End(M) of local, pairwise non-isomorphic atoms gets its radical and
    generators from the atoms' blocks (``relrep.endo`` has no other route);
    on the reference's side the trace form of g runs only when an atom class
    repeats.  An atom that is not local is split into its local parts
    first."""

    @pytest.fixture
    def trace_form_calls(self, monkeypatch):
        calls = []
        real = ref.trace_form_radical

        def recorded(mult):
            calls.append(mult)
            return real(mult)

        monkeypatch.setattr(ref, "trace_form_radical", recorded)
        return calls

    def test_the_blocks_give_the_route_from_scratch(self, cyc3_5, cyc2_4, trace_form_calls):
        # fresh copies of the modules of radical_corpus's 98 End algebras,
        # so that every algebra is built while the calls are recorded
        theorem = [
            parse_module_expression(alg, e)
            for alg, exprs in (
                (cyc3_5, (M1_EXPR, M2_EXPR)),
                (cyc2_4, (C1_EXPR, C2_EXPR)),
                (cyc3_5, (MUTATED_EXPR, MUTATED_M2_EXPR)),
            )
            for e in exprs
        ]
        modules = [*_sweep_candidates(), *theorem]
        assert len(modules) == 98
        for m in modules:
            g, _ = end_algebra(m)
            seeded = (ref.radical(g), ref.radical_generators(g))
            assert not any(mult is ref.tensor(g) for mult in trace_form_calls)
            assert seeded == ref.radical_data(g)

    def test_a_repeated_class_takes_the_trace_form(self, cyc3_5, trace_form_calls):
        g, _ = end_algebra(parse_module_expression(cyc3_5, "P(1)+P(1)+S(1)"))
        assert g.piece_classes == (0, 0, 1)
        seeded = (ref.radical(g), ref.radical_generators(g))
        assert [mult is ref.tensor(g) for mult in trace_form_calls] == [True]
        assert seeded == ref.radical_data(ref.dense_copy(g))

    def test_an_atom_that_is_not_local_is_split_into_its_parts(self, cyc3_5, trace_form_calls):
        # a plain copy of P(1)+S(1): one atom, decomposable, not a registered
        # sum; End(M) is laid out over P(2), P(1) and S(1)
        layered = parse_module_expression(cyc3_5, "P(1)+S(1)")
        plain = Module(cyc3_5, layered.dims, layered.arrow_maps)
        m = direct_sum(cyc3_5, [parse_module_expression(cyc3_5, "P(2)"), plain])
        g, _ = end_algebra(m)
        assert g.piece_classes == (0, 1, 2) and ref.on_blocks(g)
        seeded = (ref.radical(g), ref.radical_generators(g))
        assert trace_form_calls == []
        assert seeded == ref.radical_data(g)


def _assert_public_build(mat: Matrix) -> None:
    """mat holds what the public constructor makes of its entries: the same
    values, each of the same canonical type (an int when integral)."""
    public = Matrix(mat.rows, mat.cols, mat._data)
    assert mat == public
    assert [list(map(type, row)) for row in mat._data] == [
        list(map(type, row)) for row in public._data
    ]


class TestUncheckedBuilds:
    """``sc_reference._combine``, ``hom_sc_bimodule_sides``, the kernel
    systems of ``_Chain.extend`` and ``rep.morphism_from_generator`` wrap
    canonicalized rows unchecked; each build must equal the public
    constructor's on the theorem modules."""

    def test_bimodule_sides_and_their_combinations(self, pairs):
        half = Fraction(1, 2)
        for m1, m2 in pairs:
            for side in hom_sc_bimodule_sides(m2, m1):
                for a in side.action:
                    _assert_public_build(a)
                for k, a in enumerate(side.action):
                    # half + half: products that are integral Fractions
                    combined = ref._combine(side.action, side.dim, [(k, half), (k, half)])
                    _assert_public_build(combined)
                    assert combined == a
                for terms in (_terms(g) for g in ref.radical_generators(side.algebra)):
                    _assert_public_build(ref._combine(side.action, side.dim, terms))

    def test_covers(self, pairs, monkeypatch):
        """The per-vertex kernel systems of every cover, recorded as the
        chain solves them, on the modules and on rescaled copies whose
        action has non-integral entries."""
        systems = []
        solve = Matrix.kernel_basis

        def recorded(mat):
            systems.append(mat)
            return solve(mat)

        monkeypatch.setattr(Matrix, "kernel_basis", recorded)
        fractional = 0
        for m1, m2 in pairs:
            modules = [*hom_sc_bimodule_sides(m2, m1)]
            for m in (m1, m2):
                g, _ = end_algebra(m)
                modules += [ref.regular_sc_module(g), ref.semisimple_quotient_module(g)]
            for x in modules + [_rescaled(x) for x in modules]:
                chain = _Chain(x.algebra, x)
                systems.clear()
                chain.ensure(CHAIN_DEPTH)
                # at most one system per vertex and level
                assert 0 < len(systems) <= CHAIN_DEPTH * len(chain.members)
                for mat in systems:
                    _assert_public_build(mat)
                    fractional += any(type(c) is not int for row in mat._data for c in row)
        assert fractional

    def test_morphisms_from_generators(self, pairs):
        """Out of projectives (whose vertex maps are the built rows
        themselves) and out of the atoms, into the atoms and into rescaled
        copies of them; coefficients 1/2 as well as basis vectors."""
        half = Fraction(1, 2)
        fractional = 0
        for m1, m2 in pairs:
            alg = m1.algebra
            atoms = list({id(a): a for a in flatten_atoms(m1) + flatten_atoms(m2)}.values())
            sources = atoms + [proj_module(alg, v) for v in range(alg.quiver.vertex_count)]
            for x in sources:
                for y in atoms + [_rescaled_module(y) for y in atoms]:
                    space = hom_space(x, y)
                    for coords in [*Matrix.identity(space.dim).columns(), [half] * space.dim]:
                        for mat in space.from_coords(coords).maps:
                            _assert_public_build(mat)
                            fractional += any(type(c) is not int for row in mat._data for c in row)
        assert fractional


def _rescaled_module(x: Module) -> Module:
    """x in the basis of the columns of T_v = I + (1/2)·(superdiagonal) at
    each vertex v (the module counterpart of ``_rescaled``)."""
    half = Fraction(1, 2)
    ts = [Matrix(d, d, [[int(i == j) + (half if j == i + 1 else 0) for j in range(d)] for i in range(d)]) for d in x.dims]
    arrows = x.algebra.quiver.arrows
    return Module(x.algebra, x.dims, [ts[a.target].inverse() @ m @ ts[a.source] for a, m in zip(arrows, x.arrow_maps)])


def _rescaled(x: SCModule) -> SCModule:
    """x in the basis of the columns of T = I + (1/2)·(superdiagonal within
    each vertex): an isomorphic graded module whose action has non-integral
    entries, so that cover columns are sums of Fraction products, some of
    them integral."""
    half = Fraction(1, 2)
    at = x.grading
    t = Matrix(
        x.dim,
        x.dim,
        [[int(i == j) + (half if j == i + 1 and at[i] == at[j] else 0) for j in range(x.dim)] for i in range(x.dim)],
    )
    t_inv = t.inverse()
    return SCModule(x.algebra, x.dim, [t_inv @ a @ t for a in x.action], at)


def _rows_by_pivot(span: _Span) -> list:
    return sorted(zip(span.pivots, span.rows))


_entries = st.one_of(
    st.integers(min_value=-3, max_value=3),
    st.fractions(min_value=-4, max_value=4, max_denominator=5),
)


@st.composite
def _vector_lists(draw):
    """Vectors of one length, with zero vectors, repeats and sums of earlier
    vectors among them (sums of fractions may be integral ``Fraction``s, as
    the images a cover spans are)."""
    length = draw(st.integers(min_value=0, max_value=7))
    vectors: list[list] = []
    for _ in range(draw(st.integers(min_value=0, max_value=9))):
        kind = draw(st.sampled_from(["random", "zero", "sum"]))
        if kind == "sum" and vectors:
            a, b = draw(st.sampled_from(vectors)), draw(st.sampled_from(vectors))
            c = draw(_entries)
            vectors.append([Fraction(x) + c * y for x, y in zip(a, b)])
        elif kind == "zero":
            vectors.append([0] * length)
        else:
            vectors.append(draw(st.lists(_entries, min_size=length, max_size=length)))
    return length, vectors


@settings(max_examples=200, deadline=None)
@given(_vector_lists(), _vector_lists())
def test_a_seeded_span_is_the_span_built_vector_by_vector(seed, more):
    length, vectors = seed
    one_by_one = _Span(length)
    for v in vectors:
        one_by_one.add(v)
    seeded = ref.spanned_by(length, vectors)
    assert _rows_by_pivot(seeded) == _rows_by_pivot(one_by_one)
    assert seeded.rank == one_by_one.rank
    # both go on the same way: the same vectors are new, the same are inside
    extra = [v[:length] + [0] * (length - len(v)) for v in more[1]]
    for v in extra:
        assert seeded.contains(v) == one_by_one.contains(v)
        assert seeded.add(v) == one_by_one.add(v)
    assert _rows_by_pivot(seeded) == _rows_by_pivot(one_by_one)

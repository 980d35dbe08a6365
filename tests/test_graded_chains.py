"""The vertex grading of the structure-constant chains and modules.

``relrep.endo`` resolves one vertex at a time: every kernel vector lies at
one vertex (its left idempotent fixes it, the others kill it), each kernel
is solved vertex by vertex, and a cover spans the radical of its kernel by
the homogeneous radical generators e_j·ℓ·e_i.  A module carries its grading
too, so its first cover works the same way.  These tests check the grading
itself on the sweep and theorem algebras and modules, the onto and
minimality guards of a cover, that an algebra whose basis mixes vertices is
one piece (its unit the only idempotent) and gets, on the reference route,
the library's answers for the algebra it came from, that a module moved off
a basis that mixes vertices onto graded bases gets the answers of the
module it came from, and that every module the library builds, and every
module ``sc_reference`` builds for these tests, passes
``sc_reference.check_module``, its grading included; a module with no
grading, or a grading of the wrong length or at a vertex the algebra does
not have, is refused.
"""

from functools import partial

import pytest

import sc_reference as ref
from relrep import endo
from relrep.endo import (
    SCModule,
    StructureConstantAlgebra,
    _Chain,
    _chain_tables,
    _reduce_to_basic,
    _terms,
    _top_chain,
    gldim_le,
    hom_sc_bimodule_sides,
    sc_ext_dims,
    sc_injective_dim_le,
    sc_pd_le,
    verify_theorem,
)
from relrep.exact_linalg import Matrix
from relrep.path_algebra import AlgebraError, AlgebraPresentation, InternalError, cyclic_quiver
from relrep.rep import cogenerator_module, direct_sum, parse_module_expression, regular_module

from conftest import M1_EXPR, M2_EXPR

from test_endo import MUTATED_EXPR, _linear_end
from test_local_atoms import _kronecker, _root_two
from test_sc_resolutions import (
    BOUNDS,
    C1_EXPR,
    C2_EXPR,
    CHAIN_DEPTH,
    _assert_chains_agree,
    _sweep_candidates,
)


@pytest.fixture(scope="module")
def sweep_algebras():
    return [endo.end_ring(m) for m in _sweep_candidates()]


@pytest.fixture(scope="module")
def theorem_sides(m1, m2, cyc3_5):
    """Both sides of Hom(m2, m1) for the theorem pairs, graded by their atom
    blocks: block (j, s) lies at vertex s over End(m1) and at vertex j over
    End(m2)^op."""
    cyc2_4 = AlgebraPresentation.truncated(cyclic_quiver(2), 4, name="cyc2-trunc4")
    c1 = parse_module_expression(cyc2_4, C1_EXPR)
    c2 = parse_module_expression(cyc2_4, C2_EXPR)
    return [side for a, b in ((m1, m2), (c1, c2), (c2, c1)) for side in hom_sc_bimodule_sides(b, a)]


def _fresh(g: StructureConstantAlgebra) -> StructureConstantAlgebra:
    """A new End(M) on g's atom blocks: nothing is cached on it."""
    return StructureConstantAlgebra(g.dim, g.unit, g.idempotents, g.piece_classes, g.piece_members, g._blocks, g.name)


def _idempotent_terms(g: StructureConstantAlgebra) -> list:
    """The terms of the idempotents the chains over g grade by."""
    return [_terms(e) for e in g.idempotents]


def _element(chain, kind: int, comp: list) -> list:
    """The terms of the element of A e_kind with coordinates ``comp``."""
    return [(chain.members[kind][t], c) for t, c in enumerate(comp) if c != 0]


def _base_module(chain, g: StructureConstantAlgebra) -> SCModule:
    """The graded module the chain resolves, rebuilt from the chain."""
    dim = sum(map(len, chain.base_at))
    grading = [0] * dim
    for i, coords in enumerate(chain.base_at):
        for c in coords:
            grading[c] = i
    return SCModule(g, dim, chain.base_action, grading)


def _cover_image(chain, level: int, vec: list, base=None) -> list:
    """The dense cover map P_level -> P_{level-1} (or onto ``base``) applied to
    the dense P_level vector ``vec``: summand r's coordinates act on its
    generator, a unit vector of ``base`` at vertex r on the first cover."""
    cover = chain.covers[level]
    width = base.dim if level == 0 else chain.covers[level - 1].dim
    if level == 0:
        dense = [chain.base_at[kind][w.index(1)] for kind, w in zip(cover.kinds, cover.gens)]
        gens = [[int(c == d) for c in range(width)] for d in dense]
    else:
        gens = chain._dense_gens(level)
    out = [0] * width
    for kind, off, gen in zip(cover.kinds, cover.offsets, gens):
        terms = _element(chain, kind, vec[off : off + len(chain.members[kind])])
        if not terms:
            continue
        if level == 0:
            coeffs = [0] * chain.algebra_dim
            for k, c in terms:
                coeffs[k] = c
            image = ref.apply(base, coeffs, gen)
        else:
            image = ref.act_on_cover(chain, level - 1, terms, gen)
        out = [a + b for a, b in zip(out, image)]
    return out


def _assert_graded(chain, g: StructureConstantAlgebra) -> int:
    """Every kernel vector lies at one vertex and its dense expansion is
    killed by the dense cover map; returns the number of vectors checked."""
    chain.ensure(CHAIN_DEPTH)
    tables = chain.tables
    idempotent_terms = _idempotent_terms(g)
    base = _base_module(chain, g) if chain.covers[0].gens is not None else None
    checked = 0
    for level, cover in enumerate(chain.covers):
        for i, vecs in enumerate(cover.kernels):
            for v in vecs:
                dense = cover.dense(i, v)
                assert any(dense)
                # supported at vertex i: on members there, fixed by e_i, killed by the rest
                for kind, off in zip(cover.kinds, cover.offsets):
                    for t, m in enumerate(chain.members[kind]):
                        assert dense[off + t] == 0 or tables.vertex[m] == i
                for j, e_terms in enumerate(idempotent_terms):
                    acted = ref.act_on_cover(chain, level, e_terms, dense)
                    assert acted == (dense if j == i else [0] * cover.dim)
                if cover.gens is not None:
                    assert not any(_cover_image(chain, level, dense, base))
                checked += 1
    return checked


class TestGrading:
    def test_sweep_top_chains(self, sweep_algebras):
        assert len(sweep_algebras) == 92
        checked = 0
        for g in sweep_algebras:
            basic, _ = _reduce_to_basic(g)
            for kind in range(len(basic.piece_members)):
                chain = _top_chain(basic, kind)
                if chain is not None:
                    checked += _assert_graded(chain, basic)
        assert checked > 1000

    def test_theorem_sides(self, theorem_sides):
        assert len(theorem_sides) == 6
        for side in theorem_sides:
            g = side.algebra
            # the regular module is projective: its chain checks the first cover only
            checked = [
                _assert_graded(_Chain(g, x), g)
                for x in (side, ref.regular_sc_module(g), ref.semisimple_quotient_module(g))
            ]
            assert checked[0] and checked[2]


def test_sweep_quotients_agree_with_the_ungraded_reference(sweep_algebras):
    # covers level by level, then pd and Ext read off each chain
    for g in sweep_algebras:
        _assert_chains_agree(g, ref.semisimple_quotient_module(g))


def test_repeated_atom_classes_agree_with_the_ungraded_reference(cyc3_5):
    # not basic: e_i A e_j holds isomorphisms for atoms of one class, so
    # members off the diagonal blocks lie outside rad A and their images
    # join the spans of other vertices.  The library resolves such an
    # End(M) over its basic algebra; its chains run over it here on the
    # generic tables of sc_reference
    for expr in ("P(1)+P(1)+S(1)", "P(1)+P(2)+S(1)+S(1)+P(1)/rad^2", "S(1)+S(1)+P(2)/rad^3+P(2)/rad^3"):
        g = ref.generic(endo.end_ring(parse_module_expression(cyc3_5, expr)))
        assert len(set(g.piece_classes)) < len(g.piece_classes)
        tables = _chain_tables(g)
        assert any(tables.vertex[m] != s for s, tops in enumerate(tables.tops) for m in tops)
        for x in (ref.regular_sc_module(g), ref.semisimple_quotient_module(g)):
            _assert_chains_agree(g, x)


class TestCoverGuards:
    """A cover checks that its rank is the dimension of the kernel it covers,
    and that its kernel lies in the radical (it is a projective cover)."""

    def _idempotents_as_generators(self, g):
        # the idempotents in place of the radical generators: the seeded span
        # of each kernel is then all of it, and no generator is taken
        _chain_tables(g).leaving = [[(i, terms)] for i, terms in enumerate(_idempotent_terms(g))]

    def test_seeds_outside_the_radical_leave_the_cover_short(self, sweep_algebras, theorem_sides):
        tops = 0
        for g in sweep_algebras[::7]:
            g = _fresh(g)
            self._idempotents_as_generators(g)
            for kind in range(len(g.piece_members)):
                chain = _Chain._at_top(g, kind)
                if not any(chain.covers[0].kernels):
                    continue
                with pytest.raises(InternalError, match="not onto") as err:
                    chain.extend()
                assert err.value.layer == "endo"
                tops += 1
        assert tops
        side = theorem_sides[0]
        g = _fresh(side.algebra)
        self._idempotents_as_generators(g)
        with pytest.raises(InternalError, match="not onto"):
            _Chain(g, side).extend()

    def _refusals(self, algebras, cut) -> int:
        """How many of the algebras refuse a cover once ``cut`` has changed
        the tables of a fresh copy; the others give the same answers."""
        refused = 0
        for g in algebras:
            expected = [gldim_le(g, n) for n in BOUNDS]
            fresh = _fresh(g)
            cut(_chain_tables(fresh))
            try:
                answers = [gldim_le(fresh, n) for n in BOUNDS]
            except InternalError as err:
                assert err.layer == "endo" and "not minimal" in str(err)
                refused += 1
            else:
                assert answers == expected
        return refused

    def test_generators_cut_short_are_refused(self, sweep_algebras):
        # fewer radical generators span less than rad K, so a cover takes more
        # generators than it needs; their images still span K (Nakayama), so
        # the onto guard stays quiet, but the kernel leaves rad P
        def cut(tables):
            tables.leaving = [generators[:-1] for generators in tables.leaving]

        assert self._refusals(sweep_algebras[:12], cut)

    def test_a_dropped_top_member_is_refused(self):
        # End(R) = QQ(sqrt 2) for the Kronecker atom R: the tops of its piece
        # are two members, and with one dropped a generator's image under it
        # never joins the spans, so a kernel vector in the same D-line mod
        # rad K is taken as a second generator
        alg = _kronecker()
        algebras = [
            endo.end_ring(direct_sum(alg, [_root_two(alg), parse_module_expression(alg, x)]))
            for x in ("P(1)+P(2)", "P(1)+P(2)+I(1)+I(2)")
        ]
        assert all(len(tops) == 2 for g in algebras for tops in _chain_tables(g).tops[:1])

        def cut(tables):
            tables.tops = [tops[:-1] for tops in tables.tops]

        assert self._refusals(algebras, cut)


def _mixing_basis(g: StructureConstantAlgebra) -> tuple:
    """``(basis, coords)``: another basis of g, and the coordinates of a
    vector of g in it.  In each piece A e_s with members at two vertices,
    its first member b gets the first member b' at another vertex added.
    The basis still spans each A e_s, but e_i·(b + b') is b for the vertex
    i of b: neither b + b' nor 0."""
    vertex = _chain_tables(g).vertex
    n = g.dim
    t = [[int(i == j) for j in range(n)] for i in range(n)]
    for ms in g.piece_members:
        other = [m for m in ms if vertex[m] != vertex[ms[0]]]
        if other:
            t[other[0]][ms[0]] = 1
    t = Matrix(n, n, t)
    t_inv = t.inverse()
    basis = t.columns()

    def coords(vec):
        return (t_inv @ Matrix.column(list(vec))).columns()[0]

    return basis, coords


def _mixed(g: StructureConstantAlgebra) -> ref.DenseAlgebra:
    """g in the basis of ``_mixing_basis``, built with its idempotents."""
    basis, coords = _mixing_basis(g)
    n = g.dim
    mult = [[coords(ref.multiply(g, basis[i], basis[j])) for j in range(n)] for i in range(n)]
    return ref.DenseAlgebra(
        mult,
        coords(g.unit),
        idempotents=[coords(e) for e in g.idempotents],
        piece_classes=g.piece_classes,
        name=g.name + " mixed",
    )


class TestLeftHomogeneity:
    @pytest.fixture(scope="class")
    def mixed_pairs(self, sweep_algebras):
        originals = [_linear_end(2), *sweep_algebras[::9]]
        return [(g, _mixed(g)) for g in originals]

    def test_a_basis_that_mixes_vertices_takes_free_covers(self, mixed_pairs):
        # one piece: the unit is the only idempotent, A·1 the only cover summand
        for g, mixed in mixed_pairs:
            assert len(g.piece_members) == len(g.idempotents) > 1
            assert ref.check_associativity(mixed) and ref.check_unit(mixed)
            assert mixed.idempotents == (mixed.unit,)
            assert mixed.piece_members == (tuple(range(mixed.dim)),)
            assert mixed.piece_classes == (0,)
            assert mixed._detect_members() == mixed.piece_members

    def test_it_gets_the_library_answers_on_the_reference_route(self, mixed_pairs):
        # free covers are far from minimal, so the reference's split test
        # resolves kernels that grow by a factor of about dim A per level:
        # only ut2 (End(Λ) of linear A2) and the smallest sweep algebra
        # (dim 4) stay at desk scale
        assert [g.dim for g, _ in mixed_pairs[:2]] == [3, 4]
        for g, mixed in mixed_pairs[:2]:
            bounds = BOUNDS[:3]
            assert [ref.gldim_le(mixed, n) for n in bounds] == [gldim_le(g, n) for n in bounds]
            quot = ref.semisimple_quotient_module(mixed)
            assert ref.check_module(quot)
            assert [ref.sc_pd_le(mixed, quot, n) for n in bounds] == [
                sc_pd_le(g, ref.semisimple_quotient_module(g), n) for n in bounds
            ]

    def test_supplied_members_that_mix_vertices_are_an_internal_error(self, mixed_pairs):
        # with g's idempotents in the mixing basis, not the one-piece unit
        for g, mixed in mixed_pairs:
            _, coords = _mixing_basis(g)
            supplied = ref.from_sparse(
                mixed.dim,
                ref.tensor(mixed),
                mixed.unit,
                [coords(e) for e in g.idempotents],
                g.piece_classes,
                piece_members=g.piece_members,
            )
            with pytest.raises(InternalError, match="mix vertices") as err:
                ref.GenericChainTables(supplied)
            assert err.value.layer == "endo"


def test_the_basic_reduction_keeps_the_corner_of_the_kept_vertices(cyc3_5):
    # eps·A·eps for eps the sum of one idempotent per class, read off the
    # products: the basis vectors b with eps·b·eps = b, every other one killed
    both = direct_sum(cyc3_5, [regular_module(cyc3_5), cogenerator_module(cyc3_5)])
    modules = [both, parse_module_expression(cyc3_5, "P(1)+P(1)+S(1)+P(2)/rad^2+P(2)/rad^2")]
    for m in modules:
        g = endo.end_ring(m)
        basic, _ = _reduce_to_basic(g)
        assert basic is not g
        keep = [kind for kind, cls in enumerate(g.piece_classes) if cls not in g.piece_classes[:kind]]
        eps = [sum(g.idempotents[kind][t] for kind in keep) for t in range(g.dim)]
        corner = []
        for t in range(g.dim):
            unit = [int(t == u) for u in range(g.dim)]
            squeezed = ref.multiply(g, ref.multiply(g, eps, unit), eps)
            assert squeezed in (unit, [0] * g.dim)
            if squeezed == unit:
                corner.append(t)
        assert basic.dim == len(corner)
        assert ref.tensor(basic) == tuple(
            tuple(tuple((corner.index(p), c) for p, c in ref.tensor(g)[a][b]) for b in corner) for a in corner
        )


# -- graded modules ------------------------------------------------------------


def _vertex_mixing(x: SCModule) -> ref.UngradedModule:
    """x in another basis, ungraded (only the reference routes read it): the
    first coordinate at each vertex but the last gets the first coordinate
    at the next vertex added, so that an idempotent sends the new basis
    vector to neither itself nor 0."""
    firsts = [x.grading.index(i) for i in sorted(set(x.grading))]
    t = [[int(r == c) for c in range(x.dim)] for r in range(x.dim)]
    for a, b in zip(firsts, firsts[1:]):
        t[b][a] = 1
    t = Matrix(x.dim, x.dim, t)
    t_inv = t.inverse()
    return ref.UngradedModule(x.algebra, x.dim, tuple(t_inv @ a @ t for a in x.action))


@pytest.fixture(scope="module")
def repeated_sides(cyc3_5):
    """Both sides of Hom(m2, m1) for modules with repeated atom classes:
    neither End algebra is basic, so Ext is read over the basic reduction."""
    m1 = parse_module_expression(cyc3_5, "P(1)+P(1)+S(1)+P(2)/rad^2+P(2)/rad^2")
    m2 = parse_module_expression(cyc3_5, "P(1)+P(2)+S(1)+S(1)+P(3)/rad^3")
    return hom_sc_bimodule_sides(m2, m1)


def _unreduced_ext_dims(x: SCModule, up_to: int) -> list[int]:
    """dim Ext^i(x, x) for i = 1..up_to off the reference chain over x's own
    algebra, with no basic reduction."""
    chain = ref.FullRadicalChain(x.algebra, x)
    dims, ranks = chain.hom_complex_dims_and_ranks(up_to + 1, partial(ref.apply, x), x.dim)
    return [dims[i] - ranks[i] - ranks[i - 1] for i in range(1, up_to + 1)]


class TestGradedModules:
    def test_sides_and_their_duals_arrive_graded(self, theorem_sides, repeated_sides):
        transported = 0
        for side in [*theorem_sides, *repeated_sides]:
            g = side.algebra
            assert ref.check_module(side)
            assert ref.check_module(ref.dual_sc_module(side))
            basic, transport = _reduce_to_basic(g)
            built = [ref.regular_sc_module(g), ref.semisimple_quotient_module(g)]
            if basic is not g:
                built += [transport(x) for x in (side, *built)]
                transported += 1
            assert all(ref.check_module(x) for x in built)
        assert transported == 2

    def test_a_grading_off_the_algebra_is_an_input_error(self, cyc3_5):
        # the End(m2) side of the reversed mutated pair: a vertex past the
        # idempotents would hide every coordinate and read Ext as zero, and a
        # short grading would leave the first cover short
        mutated = parse_module_expression(cyc3_5, MUTATED_EXPR)
        side = hom_sc_bimodule_sides(parse_module_expression(cyc3_5, M1_EXPR), mutated)[1]
        g = side.algebra
        assert sc_ext_dims(g, side, side, 4) == [0, 2, 0, 0]
        count = len(g.idempotents)
        for grading in ([i + count for i in side.grading], side.grading[:-1], [*side.grading, 0], [-1] * side.dim):
            with pytest.raises(AlgebraError, match="grading"):
                SCModule(g, side.dim, side.action, grading)
        assert SCModule(g, side.dim, side.action, list(side.grading)).grading == side.grading

    def test_sides_get_the_dense_reference_answers(self, theorem_sides, repeated_sides):
        for side in [*theorem_sides, *repeated_sides]:
            g = side.algebra
            assert sc_ext_dims(g, side, side, BOUNDS[-1]) == ref.sc_ext_dims(g, side, side, BOUNDS[-1])
            assert sc_ext_dims(g, side, side, BOUNDS[-1]) == _unreduced_ext_dims(side, BOUNDS[-1])
            assert [sc_pd_le(g, side, n) for n in BOUNDS] == [ref.sc_pd_le(g, side, n) for n in BOUNDS]
            assert [sc_injective_dim_le(g, side, n) for n in BOUNDS] == [
                ref.sc_injective_dim_le(g, side, n) for n in BOUNDS
            ]

    def test_the_first_cover_matches_the_dense_first_cover(self, theorem_sides):
        # both take minimal covers, so the levels agree in their invariants
        for side in theorem_sides:
            for x in (side, ref.dual_sc_module(side)):
                if isinstance(x.algebra, ref.DenseAlgebra):
                    ref.on_generic_tables(x.algebra)
                ours, dense = _Chain(x.algebra, x), ref.DenseFirstCoverChain(x.algebra, x)
                ours.ensure(CHAIN_DEPTH)
                dense.ensure(CHAIN_DEPTH)
                profiles = [
                    [(c.dim, sorted(c.kinds), [len(k) for k in c.kernels]) for c in chain.covers]
                    for chain in (ours, dense)
                ]
                assert profiles[0] == profiles[1]

    def test_a_module_that_mixes_vertices_is_rebased(self, theorem_sides):
        for side in theorem_sides[:2]:
            g = side.algebra
            regular = ref.regular_sc_module(g)
            for x in (regular, side):
                mixed = _vertex_mixing(x)
                assert mixed.grading is None
                # some idempotent sends some basis vector to neither itself nor 0
                assert any(
                    ref.element_matrix(mixed, e)._data[r][c] not in (0, int(r == c))
                    for e in g.idempotents
                    for r in range(mixed.dim)
                    for c in range(mixed.dim)
                )
                graded = ref.rebased(mixed)
                assert ref.check_module(graded)
                answers = [
                    sc_ext_dims(g, graded, graded, 3),
                    sc_ext_dims(g, graded, side, 3),
                    [sc_pd_le(g, graded, n) for n in BOUNDS],
                    [sc_injective_dim_le(g, graded, n) for n in BOUNDS[:3]],
                ]
                assert answers == [
                    sc_ext_dims(g, x, x, 3),
                    sc_ext_dims(g, x, side, 3),
                    [sc_pd_le(g, x, n) for n in BOUNDS],
                    [sc_injective_dim_le(g, x, n) for n in BOUNDS[:3]],
                ]
                assert answers == [
                    ref.sc_ext_dims(g, mixed, mixed, 3),
                    ref.sc_ext_dims(g, mixed, side, 3),
                    [ref.sc_pd_le(g, mixed, n) for n in BOUNDS],
                    [ref.sc_injective_dim_le(g, mixed, n) for n in BOUNDS[:3]],
                ]
            # the regular module is projective
            assert [sc_pd_le(g, regular, n) for n in BOUNDS] == [True] * len(BOUNDS)

    def test_the_library_refuses_a_module_that_mixes_vertices(self, theorem_sides, repeated_sides):
        # the reference routes read no grading; the library resolves one
        # vertex at a time, so it refuses to build a module without one
        for side in [theorem_sides[0], repeated_sides[0]]:
            mixed = _vertex_mixing(side)
            with pytest.raises(AlgebraError, match="grading"):
                SCModule(side.algebra, mixed.dim, mixed.action, None)
        # while the reference takes the mixed module of a basic End(M)
        side = theorem_sides[0]
        g, mixed = side.algebra, _vertex_mixing(side)
        assert ref.sc_ext_dims(g, mixed, side, 2) == sc_ext_dims(g, side, side, 2)
        assert [ref.sc_pd_le(g, mixed, n) for n in BOUNDS[:2]] == [sc_pd_le(g, side, n) for n in BOUNDS[:2]]


def test_the_theorem_builds_every_module_graded(cyc3_5, monkeypatch):
    # the three benchmark pairs: every module condition (d) builds
    built = []
    real = SCModule.__init__
    monkeypatch.setattr(SCModule, "__init__", lambda x, *args: built.append(x) or real(x, *args))
    cyc2_4 = AlgebraPresentation.truncated(cyclic_quiver(2), 4, name="cyc2-trunc4")
    cases = [(cyc3_5, M1_EXPR, M2_EXPR), (cyc2_4, C1_EXPR, C2_EXPR), (cyc2_4, C2_EXPR, C1_EXPR)]
    for alg, e1, e2 in cases:
        report = verify_theorem(parse_module_expression(alg, e1), parse_module_expression(alg, e2), 2)
        assert report.all_true
    assert len(built) == 2 * len(cases)
    assert all(ref.check_module(x) for x in built)

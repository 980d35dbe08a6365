"""Covers, resolutions, Ext groups, transposes and add-membership.

Expected values for the cyclic 3-vertex algebra were worked out by hand from
path combinatorics: projectives are spanned by the paths leaving a vertex,
morphisms from a cyclic module are fixed by one generator image, and minimal
covers peel off radical layers one at a time.
"""

import itertools
import random

import pytest

from relrep import homology, rep
from relrep.exact_linalg import QQ, Matrix
from relrep.homology import (
    Ext1Space,
    _boundary_rank,
    _hom_complex,
    dtr,
    ext1_space,
    ext_dim,
    factor_through,
    in_add,
    in_add_via_split,
    injective_resolution,
    is_left_minimal,
    is_right_minimal,
    is_split_epi,
    minimal_left_approximation,
    minimal_right_approximation,
    projective_cover,
    projective_resolution,
    transpose,
    trd,
    yoneda_ext1_pairing,
)
from relrep.path_algebra import (
    AlgebraError,
    AlgebraPresentation,
    Arrow,
    Quiver,
    Relation,
    cyclic_quiver,
    linear_quiver,
)
from relrep.relhom import contravariant_functor, covariant_functor, pd_F_le
from relrep.rep import (
    Module,
    Morphism,
    cogenerator_module,
    direct_sum,
    dualize,
    dualize_morphism,
    enumerate_indecomposables_nakayama,
    inj_module,
    is_isomorphic,
    parse_module_expression,
    proj_module,
    regular_module,
    simple_module,
)
from conftest import zero_module
from hom_reference import summand_injection, summand_projection
from relhom_reference import canonical_pd_F_le


# Test-only helpers: no library code needs them.


def factor_through_mono(f: Morphism, q: Morphism) -> Morphism | None:
    """A morphism u with u o f = q, or None if q does not extend along f.

    Computed by duality: D(u o f) = Df o Du, so Du factors Dq through Df.
    """
    if f.source.dims != q.source.dims:
        raise AlgebraError("factorization sources do not match")
    u = factor_through(dualize_morphism(f), dualize_morphism(q))
    return None if u is None else dualize_morphism(u)


def is_split_mono(f: Morphism) -> bool:
    return factor_through_mono(f, Morphism.identity(f.source)) is not None


def minimal_presentation(x: Module) -> tuple[Morphism, Morphism]:
    """(d1: P1 -> P0, cover: P0 -> x) from the minimal resolution."""
    res = projective_resolution(x)
    res.ensure_terms(2)
    return res.differentials[0], res.augmentation


def pd_le(x: Module, n: int) -> bool:
    """Projective dimension <= n: the n-th minimal syzygy is projective."""
    if n < 0:
        raise AlgebraError("dimension bound must be >= 0")
    if x.is_zero():
        return True
    return in_add(projective_resolution(x).syzygy(n), regular_module(x.algebra))


def gldim_le(algebra: AlgebraPresentation, n: int) -> bool:
    """Global dimension <= n: every simple has projective dimension <= n."""
    return all(pd_le(simple_module(algebra, v), n) for v in range(algebra.quiver.vertex_count))


def id_le(x: Module, n: int) -> bool:
    """Injective dimension <= n, via the dual module over the opposite algebra."""
    if n < 0:
        raise AlgebraError("dimension bound must be >= 0")
    if x.is_zero():
        return True
    return pd_le(dualize(x), n)


def is_selfinjective(algebra: AlgebraPresentation) -> bool:
    """Whether every indecomposable projective is injective."""
    cog = cogenerator_module(algebra)
    return all(
        in_add(proj_module(algebra, v), cog)
        for v in range(algebra.quiver.vertex_count)
    )


def ext_dims_up_to(max_i: int, x: Module, y: Module) -> list[int]:
    """[dim Ext^0(x,y), ..., dim Ext^max_i(x,y)] off one resolution complex.

    The whole-module reference: one resolution of the whole of x against the
    whole of y, where ``ext_dim`` adds per-atom-pair values."""
    if max_i < 0:
        raise AlgebraError("ext degree must be >= 0")
    res = projective_resolution(x)
    res.ensure_terms(max_i + 2)
    dim, rank = _hom_complex(res, y)
    ranks = [rank(k) for k in range(max_i + 1)]
    return [dim(i) - ranks[i] - (ranks[i - 1] if i else 0) for i in range(max_i + 1)]


@pytest.fixture(scope="module")
def a3():
    return AlgebraPresentation(linear_quiver(3), [], 3, name="A3")


# -- covers ---------------------------------------------------------------


def test_projective_cover_of_simple(cyc3_5):
    s1 = simple_module(cyc3_5, 0)
    cover = projective_cover(s1)
    assert cover.source.dims == (2, 2, 1)
    assert cover.is_epi()
    assert is_right_minimal(cover)


def test_projective_cover_of_sum(cyc3_5, m1):
    cover = projective_cover(m1)
    # tops of the five summands: S1, S2, S3, S1, S3
    assert sorted(s._proj_vertex for s in cover.source.summands) == [0, 0, 1, 2, 2]
    assert cover.source.dims == (9, 8, 8)
    assert cover.is_epi()


def test_projective_cover_of_zero(cyc3_5):
    cover = projective_cover(zero_module(cyc3_5))
    assert cover.source.total_dim == 0
    assert cover.is_epi()


# -- resolutions ------------------------------------------------------------


def test_resolution_of_simple(cyc3_5):
    s1 = simple_module(cyc3_5, 0)
    res = projective_resolution(s1)
    res.ensure_terms(3)
    assert [t.summands[0]._proj_vertex for t in res.terms[:3]] == [0, 1, 2]
    assert res.syzygy(1).dims == (1, 2, 1)
    assert res.syzygy(2).dims == (0, 0, 1)
    assert res.syzygy(3).dims == (2, 1, 1)
    assert (res.augmentation @ res.differentials[0]).is_zero()
    assert (res.differentials[0] @ res.differentials[1]).is_zero()


def test_injective_resolution_of_simple(cyc3_5):
    s1 = simple_module(cyc3_5, 0)
    res = injective_resolution(s1)
    res.ensure_terms(2)
    # the hull of S1 is the injective with socle S1
    assert res.terms[0].dims == (2, 1, 2)
    assert res.augmentation.is_mono()
    assert (res.differentials[0] @ res.augmentation).is_zero()


def test_minimal_presentation_shapes(cyc3_5):
    s1 = simple_module(cyc3_5, 0)
    d1, cover = minimal_presentation(s1)
    assert cover.source.dims == (2, 2, 1)
    assert d1.source.dims == (1, 2, 2)
    assert (cover @ d1).is_zero()


# -- ext dimensions ----------------------------------------------------------


def test_ext_between_simples(cyc3_5):
    s = [simple_module(cyc3_5, v) for v in range(3)]
    # one arrow v0 -> v1, no arrow v0 -> v0 or v0 -> v2
    assert ext_dim(1, s[0], s[1]) == 1
    assert ext_dim(1, s[0], s[0]) == 0
    assert ext_dim(1, s[0], s[2]) == 0
    # one minimal relation from v0 (the length-5 truncation path ends at v2)
    assert ext_dim(2, s[0], s[2]) == 1
    assert ext_dim(2, s[0], s[1]) == 0


def test_ext_projective_source_vanishes(cyc3_5, m1):
    p1 = proj_module(cyc3_5, 0)
    for i in (1, 2, 3):
        assert ext_dim(i, p1, m1) == 0


def test_ext_routes_agree(cyc3_5):
    s = [simple_module(cyc3_5, v) for v in range(3)]
    u21 = parse_module_expression(cyc3_5, "P(1)/rad^2")
    u13 = parse_module_expression(cyc3_5, "P(3)/rad^2")
    pairs = [(s[0], s[1]), (s[0], s[2]), (u21, u13), (u13, u21)]
    for x, y in pairs:
        for i in (1, 2):
            assert ext_dim(i, x, y, via="projective") == ext_dim(
                i, x, y, via="injective"
            )


def test_ext_selforthogonality_of_m1_m2(m1, m2):
    assert ext_dims_up_to(2, m1, m1)[1:] == [0, 0]
    assert ext_dims_up_to(2, m2, m2)[1:] == [0, 0]


def test_ext_m2_against_m1_is_one_dimensional(cyc3_5, m1, m2):
    # the single contribution comes from the pair (P1/rad^2, P3/rad^2)
    assert ext_dim(1, m2, m1) == 1
    u21 = parse_module_expression(cyc3_5, "P(1)/rad^2")
    u13 = parse_module_expression(cyc3_5, "P(3)/rad^2")
    assert ext_dim(1, u21, u13) == 1


def test_ext_dims_up_to_matches_pointwise(cyc3_5, m1, m2):
    seq = ext_dims_up_to(3, m2, m1)
    for i, d in enumerate(seq):
        assert d == ext_dim(i, m2, m1)


# -- concrete Ext^1 ----------------------------------------------------------


def test_ext1_space_dim_matches_ext_dim(cyc3_5):
    s1 = simple_module(cyc3_5, 0)
    s2 = simple_module(cyc3_5, 1)
    p1 = proj_module(cyc3_5, 0)
    u21 = parse_module_expression(cyc3_5, "P(1)/rad^2")
    u13 = parse_module_expression(cyc3_5, "P(3)/rad^2")
    for c, a in [(u21, u13), (s1, s2), (s1, s1), (p1, s1), (s2, u13)]:
        assert Ext1Space(c, a, homology._whole_ext1_core(c, a)).dim == ext_dim(1, c, a)


def test_ext1_realize_nonsplit_sequence(cyc3_5):
    u21 = parse_module_expression(cyc3_5, "P(1)/rad^2")
    u13 = parse_module_expression(cyc3_5, "P(3)/rad^2")
    space = ext1_space(u21, u13)
    assert space.dim == 1
    ses = space.realize((1,))
    assert ses.middle.dims == (2, 1, 1)
    assert is_isomorphic(ses.middle, parse_module_expression(cyc3_5, "P(1)/rad^4"))
    assert not is_split_epi(ses.g)
    assert space.class_of(ses) == (1,)


def test_ext1_realize_zero_class_splits(cyc3_5):
    u21 = parse_module_expression(cyc3_5, "P(1)/rad^2")
    u13 = parse_module_expression(cyc3_5, "P(3)/rad^2")
    space = ext1_space(u21, u13)
    ses = space.realize((0,))
    assert is_split_epi(ses.g)
    assert is_isomorphic(ses.middle, direct_sum(cyc3_5, [u13, u21]))
    assert space.class_of(ses) == (0,)


def test_yoneda_pullback(cyc3_5):
    u21 = parse_module_expression(cyc3_5, "P(1)/rad^2")
    u13 = parse_module_expression(cyc3_5, "P(3)/rad^2")
    space = ext1_space(u21, u13)
    eta = space.realize((1,))
    # pulling back along the identity keeps the class
    assert yoneda_ext1_pairing(eta, Morphism.identity(u21)) == (1,)
    # pulling back along the sequence's own epi splits it
    pulled = yoneda_ext1_pairing(eta, eta.g)
    assert all(c == 0 for c in pulled)
    # pulling back along the zero map splits it too
    assert yoneda_ext1_pairing(eta, Morphism.zero(u21, u21)) == (0,)


# -- transpose, dtr, trd -------------------------------------------------------


def test_dtr_shifts_uniserials(cyc3_5):
    u21 = parse_module_expression(cyc3_5, "P(1)/rad^2")
    u22 = parse_module_expression(cyc3_5, "P(2)/rad^2")
    assert is_isomorphic(dtr(u21), u22)
    s1 = simple_module(cyc3_5, 0)
    s2 = simple_module(cyc3_5, 1)
    assert is_isomorphic(dtr(s1), s2)


def test_dtr_kills_projectives(cyc3_5):
    p1 = proj_module(cyc3_5, 0)
    assert dtr(p1).is_zero()
    u21 = parse_module_expression(cyc3_5, "P(1)/rad^2")
    mixed = direct_sum(cyc3_5, [p1, u21])
    assert is_isomorphic(dtr(mixed), dtr(u21))


def test_trd_inverts_dtr(cyc3_5):
    for expr in ["P(1)/rad^2", "S(1)", "P(3)/rad^2", "P(2)/rad^3"]:
        x = parse_module_expression(cyc3_5, expr)
        assert is_isomorphic(trd(dtr(x)), x)
        assert is_isomorphic(dtr(trd(x)), x)


def test_transpose_lives_over_opposite(cyc3_5):
    u21 = parse_module_expression(cyc3_5, "P(1)/rad^2")
    tr = transpose(u21)
    assert tr.algebra is cyc3_5.opposite()
    assert tr.total_dim == 2


# -- factorization and splitness -----------------------------------------------


def test_factor_through_epi(cyc3_5):
    s1 = simple_module(cyc3_5, 0)
    cover = projective_cover(s1)
    u = factor_through(cover, cover)
    assert u is not None
    assert (cover @ u - cover).is_zero()
    assert factor_through(cover, Morphism.identity(s1)) is None


def test_factor_through_mono(cyc3_5):
    s1 = simple_module(cyc3_5, 0)
    res = projective_resolution(s1)
    _, incl = res.syzygy_edge(1)
    u = factor_through_mono(incl, incl)
    assert u is not None
    assert (u @ incl - incl).is_zero()
    assert factor_through_mono(incl, Morphism.identity(incl.source)) is None


def test_split_detectors(cyc3_5, m1):
    assert is_split_epi(summand_projection(m1, 0))
    assert is_split_mono(summand_injection(m1, 3))
    s1 = simple_module(cyc3_5, 0)
    assert not is_split_epi(projective_cover(s1))


# -- add-membership -------------------------------------------------------------


def test_in_add_basics(cyc3_5, m1, m2):
    from relrep.rep import regular_module

    reg = regular_module(cyc3_5)
    p1 = proj_module(cyc3_5, 0)
    p3 = proj_module(cyc3_5, 2)
    s1 = simple_module(cyc3_5, 0)
    u21 = parse_module_expression(cyc3_5, "P(1)/rad^2")
    assert in_add(p1, reg)
    assert in_add(direct_sum(cyc3_5, [p1, p3]), reg)
    assert not in_add(s1, reg)
    assert in_add(s1, m1)
    assert in_add(u21, m2)
    assert not in_add(u21, m1)
    assert in_add(zero_module(cyc3_5), m1)


def test_in_add_agrees_with_split_route(cyc3_5, m1, m2):
    for x in enumerate_indecomposables_nakayama(cyc3_5):
        assert in_add(x, m1) == in_add_via_split(x, m1)
        assert in_add(x, m2) == in_add_via_split(x, m2)


def _sweep_algebras():
    """The four truncated cyclic algebras of the sweep workload, each with
    its indecomposables (the witnesses) and its candidates: Lambda plus
    every subset of the non-projective indecomposables, 92 in all."""
    for vertices, bound in ((2, 2), (2, 3), (3, 2), (3, 3)):
        alg = AlgebraPresentation.truncated(
            cyclic_quiver(vertices), bound, name=f"cyc{vertices}-trunc{bound}"
        )
        witnesses = enumerate_indecomposables_nakayama(alg)
        lam = regular_module(alg)
        nonprojective = [x for x in witnesses if x.total_dim < bound]
        candidates = [
            direct_sum(alg, [lam, *combo])
            for r in range(len(nonprojective) + 1)
            for combo in itertools.combinations(nonprojective, r)
        ]
        yield alg, witnesses, candidates


def _assert_membership_routes_agree(x, m) -> bool:
    member = in_add(x, m)
    assert member == minimal_right_approximation(x, m).is_iso() == in_add_via_split(x, m)
    return member


def test_in_add_by_count_agrees_on_the_sweep_pairs():
    """Every in_add call of the maximal-orthogonality sweep: the witnesses,
    P(v) and I(v) against each candidate."""
    pairs = members = 0
    for alg, witnesses, candidates in _sweep_algebras():
        vertices = range(alg.quiver.vertex_count)
        probes = [
            *witnesses,
            *(proj_module(alg, v) for v in vertices),
            *(inj_module(alg, v) for v in vertices),
        ]
        for m in candidates:
            for x in probes:
                members += _assert_membership_routes_agree(x, m)
                pairs += 1
    assert pairs == 1248
    assert 0 < members < pairs


def _without_layout(m: Module) -> Module:
    """The same matrices as m with no registered summands: one atom, which
    may decompose."""
    return Module(m.algebra, m.dims, m.arrow_maps)


def test_in_add_by_count_agrees_on_decomposable_modules():
    """Sums of two witnesses, and their first syzygies read with no
    registered summands; every eighth (x, candidate) pair."""
    pairs = members = 0
    for alg, witnesses, candidates in _sweep_algebras():
        sums = [direct_sum(alg, [a, b]) for a, b in itertools.combinations_with_replacement(witnesses, 2)]
        syzygies = [_without_layout(projective_resolution(x).syzygy(1)) for x in sums]
        assert all(x.summands is None for x in syzygies)
        xs = [x for x in sums + syzygies if not x.is_zero()]
        for k, (m, x) in enumerate(itertools.product(candidates, xs)):
            if k % 8 == 0:
                members += _assert_membership_routes_agree(x, m)
                pairs += 1
    assert pairs == 795
    assert 0 < members < pairs


@pytest.fixture
def end_radical_refused(monkeypatch):
    """``rep._end_radical_coords`` raising, not computing, on every module
    that a predicate registered through the returned function accepts: a
    regression that builds End(x) of a huge module fails at once instead of
    exhausting memory."""
    rules = []
    real = rep._end_radical_coords

    def guarded(z):
        if any(rule(z) for rule in rules):
            raise AssertionError(f"rad End(x) built for x of dims {z.dims}")
        return real(z)

    monkeypatch.setattr(rep, "_end_radical_coords", guarded)
    monkeypatch.setattr(homology, "_end_radical_coords", guarded)
    return rules.append


def test_in_add_never_builds_the_endomorphism_ring_of_x(cyc3_5, m1, m2, end_radical_refused):
    layered = parse_module_expression(cyc3_5, "P(1)+S(1)")
    plain = Module(cyc3_5, layered.dims, layered.arrow_maps)
    sums = [direct_sum(cyc3_5, [a, b]) for a, b in ((m1, m2), (m2, layered))]
    xs = [plain, *(_without_layout(projective_resolution(x).syzygy(1)) for x in sums)]
    end_radical_refused(lambda z: any(z is x for x in xs))
    for x in xs:
        assert x.summands is None
        for m in (m1, m2, regular_module(cyc3_5), layered):
            assert in_add(x, m) == in_add_via_split(x, m)


def test_canonical_relative_resolutions_build_no_large_endomorphism_ring(cyc3_5, end_radical_refused):
    """The canonical F-resolutions of criterion 7 (``relhom_reference``)
    have large terms that are not registered sums; add-membership of their
    syzygies must not build their endomorphism rings (it ran out of memory
    when it did)."""
    pool = enumerate_indecomposables_nakayama(cyc3_5)
    largest = max(x.total_dim for x in pool)
    end_radical_refused(lambda z: z.total_dim > largest)
    rng = random.Random(1517)
    for _ in range(30):
        x, m = rng.choice(pool), rng.choice(pool)
        functor = covariant_functor(m) if rng.random() < 0.5 else contravariant_functor(m)
        bound = rng.randint(0, 1)
        assert pd_F_le(x, functor, bound) == canonical_pd_F_le(x, functor, bound)


def test_minimal_right_approximation_of_outside_module(cyc3_5, m1):
    s2 = simple_module(cyc3_5, 1)
    g = minimal_right_approximation(s2, m1)
    # the only summand mapping onto S2 is P2, and one copy suffices
    assert g.source.dims == (1, 2, 2)
    assert g.is_epi()
    assert not g.is_iso()
    assert is_right_minimal(g)


def test_minimal_left_approximation_of_outside_module(cyc3_5, m1):
    s2 = simple_module(cyc3_5, 1)
    f = minimal_left_approximation(s2, m1)
    # S2 embeds as the socle of P1 and nothing smaller in add(M1) receives it
    assert f.target.dims == (2, 2, 1)
    assert f.is_mono()
    assert is_left_minimal(f)


# -- bounded dimensions -----------------------------------------------------------


def test_pd_id_over_selfinjective(cyc3_5):
    p1 = proj_module(cyc3_5, 0)
    s1 = simple_module(cyc3_5, 0)
    assert pd_le(p1, 0)
    assert id_le(p1, 0)
    assert not pd_le(s1, 0)
    assert not pd_le(s1, 3)
    assert not gldim_le(cyc3_5, 3)


def test_pd_id_over_hereditary(a3):
    s0 = simple_module(a3, 0)
    s2 = simple_module(a3, 2)
    assert pd_le(s0, 1)
    assert not pd_le(s0, 0)
    assert pd_le(s2, 0)
    assert gldim_le(a3, 1)
    assert not gldim_le(a3, 0)
    assert id_le(s0, 0)
    assert id_le(s2, 1)
    assert not id_le(s2, 0)


def test_is_selfinjective(cyc3_5, a3):
    assert is_selfinjective(cyc3_5)
    assert not is_selfinjective(a3)


# -- Yoneda coordinates against the morphism-level routes ----------------------


def _commuting_square():
    # v0 -> v1 -> v3 and v0 -> v2 -> v3, upper route = lower route
    quiver = Quiver(
        4, [Arrow("a", 0, 1), Arrow("b", 0, 2), Arrow("c", 1, 3), Arrow("d", 2, 3)]
    )
    upper = quiver.path_from_arrows([0, 2])
    lower = quiver.path_from_arrows([1, 3])
    return AlgebraPresentation(
        quiver, [Relation([(1, upper), (-1, lower)])], 3, name="square"
    )


def _a3_zero_relation():
    quiver = linear_quiver(3)
    return AlgebraPresentation(
        quiver, [Relation([(1, quiver.path_from_arrows([0, 1]))])], 2, name="A3/ab"
    )


def _kronecker():
    quiver = Quiver(2, [Arrow("a", 0, 1), Arrow("b", 0, 1)])
    return AlgebraPresentation(quiver, [], 2, name="kronecker")


def _a4_rad2():
    return AlgebraPresentation.truncated(linear_quiver(4), 2, name="A4/rad^2")


def _local_two_loops():
    # one vertex, loops x and y, x^2 = y^2 = xy = 0: basis 1, x, y, yx; local,
    # not Nakayama, of infinite global dimension
    quiver = Quiver(1, [Arrow("x", 0, 0), Arrow("y", 0, 0)])
    zero = [Relation([(1, quiver.path_from_arrows(p))]) for p in ([0, 0], [1, 1], [0, 1])]
    return AlgebraPresentation(quiver, zero, 3, name="local x2,y2,xy")


def _test_modules(alg):
    """Simples, projectives, injectives, the nonzero dtr images of simples and
    injectives, and one direct sum."""
    n = alg.quiver.vertex_count
    simples = [simple_module(alg, v) for v in range(n)]
    projs = [proj_module(alg, v) for v in range(n)]
    injs = [inj_module(alg, v) for v in range(n)]
    shifted = [dtr(x) for x in simples + injs]
    mixed = direct_sum(alg, [simples[0], projs[-1], injs[0]])
    return simples + projs + injs + [x for x in shifted if not x.is_zero()] + [mixed]


@pytest.mark.parametrize(
    "make", [_commuting_square, _a3_zero_relation, _kronecker, _a4_rad2]
)
def test_yoneda_ext_matches_injective_route_off_the_cyclic_algebras(make):
    alg = make()
    mods = _test_modules(alg)
    nonzero = 0
    for x in mods:
        for y in mods:
            dims = ext_dims_up_to(3, x, y)
            for i in range(1, 4):
                proj = ext_dim(i, x, y)
                assert proj == ext_dim(i, x, y, via="injective"), (alg.name, i, x, y)
                assert dims[i] == proj
            assert dims[0] == ext_dim(0, x, y)
            nonzero += any(dims[1:])
    # the comparison is not vacuous: some pairs have extensions
    assert nonzero


def test_ext_of_the_local_simple_grows_with_the_degree():
    # the minimal resolution of S has ranks 1, 2, 3, 4, 5, ... and
    # differentials inside the radical, so dim Ext^i(S, S) = i + 1
    s = simple_module(_local_two_loops(), 0)
    for via in ("projective", "injective"):
        assert [ext_dim(i, s, s, via=via) for i in (1, 2, 3, 4)] == [2, 3, 4, 5]


def _assert_yoneda_ranks(mods):
    """The Yoneda hom complex of every projective resolution matches the one
    built from hom-space bases and composed morphisms, term by term."""
    nonzero = 0
    for x in mods:
        res = projective_resolution(x)
        res.ensure_terms(4)
        for y in mods:
            dim, rank = _hom_complex(res, y)
            for k, d in enumerate(res.differentials):
                src, tgt = res.hom_to(k, y), res.hom_to(k + 1, y)
                expected = _boundary_rank(src, tgt, d)
                assert (dim(k), rank(k)) == (src.dim, expected), (k, x, y)
                nonzero += expected > 0
    assert nonzero


def test_yoneda_ext_separates_kronecker_regular_modules():
    # R(l): K -> K with arrows 1 and l; Ext^1(R(l), R(m)) = Hom = 1 iff l = m,
    # so the differential's path coefficients (l, -1) must be honoured
    alg = _kronecker()
    params = [0, 1, 2, -1, QQ(1, 2)]
    regs = [
        Module(alg, (1, 1), [Matrix.from_rows([[1]]), Matrix.from_rows([[lam]])])
        for lam in params
    ]
    for s, x in enumerate(regs):
        for t, y in enumerate(regs):
            expected = [int(s == t), int(s == t), 0, 0]
            assert ext_dims_up_to(3, x, y) == expected
            for i in range(1, 4):
                assert ext_dim(i, x, y) == expected[i]
                assert ext_dim(i, x, y, via="injective") == expected[i]
    _assert_yoneda_ranks(regs + _test_modules(alg))


def test_yoneda_rank_equals_boundary_rank_on_cyclic3(cyc3_5, m1, m2):
    _assert_yoneda_ranks(_test_modules(cyc3_5) + [m1, m2])


def test_yoneda_rank_equals_boundary_rank_on_the_square():
    _assert_yoneda_ranks(_test_modules(_commuting_square()))

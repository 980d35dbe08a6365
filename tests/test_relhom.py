"""Relative homological algebra of extension sub-bifunctors.

Hand-computed anchor over the cyclic 3-vertex algebra truncated at length 5:
the four-term exact chain

    0 -> P(1)/rad^2 -> S(1)+P(1) -> S(1)+P(3) -> P(3)/rad^2 -> 0

stays exact under maps from M2 = P(1)+P(2)+P(3)+S(1)+P(1)/rad^2 and under
maps into M1 = P(1)+P(2)+P(3)+S(1)+P(3)/rad^2, while the one-dimensional
extension group of (P(1)/rad^2, P(3)/rad^2) is killed by both functors.  The
transpose-of-dual shift on this algebra moves uniserials one vertex down,
which fixes the relative projective and injective atom lists below.
"""

import itertools
import sys

import pytest

from relrep import homology, relhom, rep
from relrep.exact_linalg import QQ
from relrep.path_algebra import AlgebraError, AlgebraPresentation, cyclic_quiver, linear_quiver
from relrep.homology import (
    distinct_atoms,
    dtr,
    ext1_space,
    ext_dim,
    factor_through,
    is_left_minimal,
    is_right_minimal,
    minimal_left_approximation,
    minimal_right_approximation,
    resolution_cohomology_dim,
    syzygy_lift,
    trd,
)
from relrep.relhom import (
    VARIANCES,
    AgreementReport,
    F_coresolution,
    F_resolution,
    F_subgroup_dim,
    SubBifunctor,
    check_absolute_relative_agreement,
    contravariant_functor,
    covariant_functor,
    ext_F_dim,
    gldim_F_le,
    id_F_le,
    in_F_injectives,
    in_F_projectives,
    is_F_exact,
    pd_F_le,
    resolution_step_sequence,
)
from relrep.rep import (
    Module,
    ShortExactSequence,
    cogenerator_module,
    cokernel,
    composite_coords,
    direct_sum,
    dualize,
    enumerate_indecomposables_nakayama,
    hom_basis,
    hom_dim,
    hom_space,
    is_isomorphic,
    kernel,
    nonzero_atoms,
    parse_module_expression,
    regular_module,
    simple_module,
)
from conftest import M1_EXPR, M2_EXPR
from relhom_reference import canonical_F_coresolution, canonical_pd_F_le, canonical_right_approximation
from test_homology import _a3_zero_relation, _a4_rad2, _commuting_square, _local_two_loops, _test_modules


# Test-only routes: the library decides membership by ``is_F_exact`` alone and
# builds its approximations inside the relative resolutions.


def is_F_exact_by_rank(eta: ShortExactSequence, f: SubBifunctor) -> bool:
    """Membership by rank: the induced map Hom(test, middle) ->
    Hom(test, quotient) (covariant), resp. Hom(middle, test) -> Hom(sub, test)
    (contravariant), read through ``composite_coords``, must be onto."""
    m = f.module
    if f.variance == "covariant":
        sp_out = hom_space(m, eta.quotient)
        if sp_out.dim == 0:
            return True
        coords = composite_coords(eta.g, hom_space(m, eta.middle))
    else:
        sp_out = hom_space(eta.sub, m)
        if sp_out.dim == 0:
            return True
        coords = composite_coords(hom_space(eta.middle, m), eta.f)
    return coords.rank() == sp_out.dim


def is_F_exact_by_pairing(eta: ShortExactSequence, f: SubBifunctor) -> bool:
    """Membership by extension classes: the sequence is functor-exact exactly
    when its pullback along every map test -> quotient (covariant), resp. its
    pushout along every map sub -> test (contravariant), splits."""
    m = f.module
    if f.variance == "covariant":
        space_m = ext1_space(m, eta.sub)
        if space_m.dim == 0:
            return True
        space_c = ext1_space(eta.quotient, eta.sub)
        psi = space_c.cocycle_of(eta)
        for phi in hom_basis(m, eta.quotient):
            kappa = syzygy_lift(phi)
            if any(c != 0 for c in space_m.reduce(psi @ kappa)):
                return False
        return True
    space_push = ext1_space(eta.quotient, m)
    if space_push.dim == 0:
        return True
    space_c = ext1_space(eta.quotient, eta.sub)
    psi = space_c.cocycle_of(eta)
    for alpha in hom_basis(eta.sub, m):
        if any(c != 0 for c in space_push.reduce(alpha @ psi)):
            return False
    return True


@pytest.fixture(scope="module")
def ctx(cyc3_5, m1, m2):
    P = lambda e: parse_module_expression(cyc3_5, e)
    return {
        "alg": cyc3_5,
        "m1": m1,
        "m2": m2,
        "u13": P("P(3)/rad^2"),
        "u21": P("P(1)/rad^2"),
        "u22": P("P(2)/rad^2"),
        "s1": P("S(1)"),
        "s2": P("S(2)"),
        "s3": P("S(3)"),
        "f2": covariant_functor(m2),
        "f1": covariant_functor(m1),
        "g1": contravariant_functor(m1),
    }


@pytest.fixture(scope="module")
def nonsplit(ctx):
    """The generator of the one-dimensional extension group of (u21, u13)."""
    return ext1_space(ctx["u21"], ctx["u13"]).realize((QQ(1),))


def test_functor_construction_rejects_bad_variance(ctx):
    with pytest.raises(AlgebraError):
        SubBifunctor("sideways", ctx["m2"])


def test_relative_projective_and_injective_atoms(ctx):
    # transpose-of-dual shifts uniserials one vertex down, dual-of-transpose
    # one up; projective summands of the test module contribute nothing.
    assert [a.dims for a in distinct_atoms(dtr(ctx["m2"]))] == [(0, 1, 0), (0, 1, 1)]
    assert is_isomorphic(distinct_atoms(dtr(ctx["m2"]))[0], ctx["s2"])
    assert is_isomorphic(distinct_atoms(trd(ctx["m1"]))[0], ctx["s3"])
    assert is_isomorphic(distinct_atoms(trd(ctx["m1"]))[1], ctx["u22"])


def test_membership_in_relative_projectives(ctx):
    f2, g1 = ctx["f2"], ctx["g1"]
    assert in_F_projectives(ctx["u21"], f2)          # summand of the test module
    assert not in_F_projectives(ctx["u13"], f2)
    assert in_F_projectives(ctx["s3"], g1)           # trd atom of m1
    assert in_F_projectives(ctx["u22"], g1)
    assert not in_F_projectives(ctx["s1"], g1)


def test_membership_in_relative_injectives(ctx):
    f2, g1 = ctx["f2"], ctx["g1"]
    assert in_F_injectives(ctx["s2"], f2)            # dtr atom of m2
    assert in_F_injectives(ctx["u22"], f2)
    assert not in_F_injectives(ctx["u21"], f2)
    assert in_F_injectives(ctx["u13"], g1)           # summand of the test module
    assert in_F_injectives(ctx["s1"], g1)
    assert not in_F_injectives(ctx["u21"], g1)


def test_minimized_right_approximation(ctx):
    g = minimal_right_approximation(ctx["u13"], ctx["m2"])
    assert g.source.dims == (3, 1, 2)                # S(1) + P(3)
    assert g.is_epi()
    assert is_right_minimal(g)
    assert kernel(g)[0].dims == (2, 1, 1)


def test_canonical_right_approximation(ctx):
    assert hom_dim(ctx["m2"], ctx["u13"]) == 4
    g = canonical_right_approximation(ctx["u13"], ctx["m2"])
    assert g.source.dims == (28, 24, 20)             # 4 copies of m2
    assert g.is_epi()
    # the minimal approximation is a summand of every one: this is not it
    assert g.source.total_dim > minimal_right_approximation(ctx["u13"], ctx["m2"]).source.total_dim
    assert kernel(g)[0].dims == (27, 24, 19)
    for psi in hom_basis(ctx["m2"], ctx["u13"]):
        assert factor_through(g, psi) is not None


def test_minimized_left_approximation(ctx):
    # S(3) is the socle of P(2), the only m1-atom receiving it
    g = minimal_left_approximation(ctx["s3"], ctx["m1"])
    assert g.target.dims == (1, 2, 2)
    assert g.is_mono()
    assert is_left_minimal(g)
    assert cokernel(g)[0].dims == (1, 2, 1)


def test_resolution_reproduces_hand_built_chain(ctx):
    res = F_resolution(ctx["u13"], ctx["f2"])
    res.ensure_terms(3)
    assert res.terms[0].dims == (3, 1, 2)            # S(1) + P(3)
    assert res.terms[1].dims == (3, 2, 1)            # S(1) + P(1)
    assert res.syzygy(1).dims == (2, 1, 1)
    assert is_isomorphic(res.syzygy(2), ctx["u21"])
    assert res.syzygy(3).is_zero()
    assert res.augmentation.is_epi()
    assert (res.augmentation @ res.differentials[0]).is_zero()
    assert (res.differentials[0] @ res.differentials[1]).is_zero()


def test_resolution_steps_are_exact_for_both_functors(ctx):
    res = F_resolution(ctx["u13"], ctx["f2"])
    for i in (1, 2):
        step = resolution_step_sequence(res, i)
        for functor in (ctx["f2"], ctx["g1"]):
            assert is_F_exact(step, functor)
            assert is_F_exact_by_rank(step, functor)
            assert is_F_exact_by_pairing(step, functor)


def test_nonsplit_sequence_rejected_by_both_functors(ctx, nonsplit):
    for functor in (ctx["f2"], ctx["g1"]):
        assert not is_F_exact(nonsplit, functor)
        assert not is_F_exact_by_rank(nonsplit, functor)
        assert not is_F_exact_by_pairing(nonsplit, functor)


def test_split_sequence_accepted_by_any_functor(ctx):
    split = ext1_space(ctx["u21"], ctx["u13"]).realize((QQ(0),))
    for functor in (ctx["f2"], ctx["g1"], ctx["f1"]):
        assert is_F_exact(split, functor)
        assert is_F_exact_by_rank(split, functor)
        assert is_F_exact_by_pairing(split, functor)


def test_functor_at_regular_module_is_everything(ctx, nonsplit):
    freg = covariant_functor(regular_module(ctx["alg"]))
    assert is_F_exact(nonsplit, freg)
    assert F_subgroup_dim(ctx["u21"], ctx["u13"], freg) == ext_dim(
        1, ctx["u21"], ctx["u13"]
    )
    for i in (1, 2):
        assert ext_F_dim(i, ctx["u21"], ctx["u13"], freg) == ext_dim(
            i, ctx["u21"], ctx["u13"]
        )


def test_subgroup_dim_strictly_below_absolute(ctx):
    assert ext_dim(1, ctx["u21"], ctx["u13"]) == 1
    assert F_subgroup_dim(ctx["u21"], ctx["u13"], ctx["f2"]) == 0
    assert F_subgroup_dim(ctx["u21"], ctx["u13"], ctx["g1"]) == 0


def test_degree_one_matches_subgroup_dim(ctx):
    pairs = [
        (ctx["u21"], ctx["u13"]),
        (ctx["u13"], ctx["u21"]),
        (ctx["s1"], ctx["s2"]),
        (ctx["m2"], ctx["u13"]),
    ]
    for functor in (ctx["f2"], ctx["g1"]):
        for c, a in pairs:
            assert ext_F_dim(1, c, a, functor) == F_subgroup_dim(c, a, functor)


def test_relative_ext_vanishes_on_orthogonal_pair(ctx):
    assert [ext_F_dim(i, ctx["m1"], ctx["m1"], ctx["f2"]) for i in (1, 2, 3, 4)] == [
        0,
        0,
        0,
        0,
    ]


def test_relative_balance_projective_vs_injective(ctx):
    pairs = [
        (ctx["u21"], ctx["u13"]),
        (ctx["u13"], ctx["u21"]),
        (ctx["m1"], ctx["m1"]),
        (ctx["m2"], ctx["u13"]),
    ]
    for functor in (ctx["f2"], ctx["g1"]):
        for c, a in pairs:
            for i in (1, 2, 3):
                _assert_routes_agree(i, c, a, functor)


def _assert_routes_agree(i, c, a, functor) -> int:
    """The projective route (hom dimensions along the i-th step of the
    relative resolution) against the injective route, against the full hom
    complex of the same relative resolution, and against the cokernel of the
    restrictions Hom(P_{i-1}, a) -> Hom(syzygy(i), a) read through
    ``composite_coords``; returns the common value."""
    where = (functor.variance, i, c.dims, a.dims)
    projective = ext_F_dim(i, c, a, functor, via="projective")
    assert projective == ext_F_dim(i, c, a, functor, via="injective"), where
    res = F_resolution(c, functor)
    assert projective == resolution_cohomology_dim(res, i, a), where
    syzygy, incl = res.syzygy_edge(i)
    restrictions = composite_coords(res.hom_to(i - 1, a), incl)
    assert projective == hom_space(syzygy, a).dim - restrictions.rank(), where
    return projective


@pytest.mark.parametrize(
    "make", [_commuting_square, _a3_zero_relation, _a4_rad2], ids=lambda make: make.__name__.strip("_")
)
def test_relative_balance_off_the_cyclic_algebras(make):
    alg = make()
    modules = _test_modules(alg)
    higher = differs = 0
    for v in range(alg.quiver.vertex_count):
        test = simple_module(alg, v)
        for functor in (covariant_functor(test), contravariant_functor(test)):
            for c, a in itertools.product(modules, repeat=2):
                for i in (1, 2, 3):
                    value = _assert_routes_agree(i, c, a, functor)
                    higher += i > 1 and value != 0
                    differs += value != ext_dim(i, c, a)
    # not vacuous: some degree above 1 is nonzero, and some relative group
    # is not the absolute one
    assert higher and differs


def test_relative_balance_on_the_local_algebra():
    # past Nakayama and of infinite global dimension: Ext^i(S, S) = i + 1
    alg = _local_two_loops()
    P = lambda e: parse_module_expression(alg, e)
    s = P("S(1)")
    modules = [s, P("P(1)/rad^2"), P("P(1)"), dtr(s)]
    higher = differs = 0
    for functor in (covariant_functor(s), contravariant_functor(s)):
        for c, a in itertools.product(modules, repeat=2):
            for i in (1, 2):
                value = _assert_routes_agree(i, c, a, functor)
                higher += i > 1 and value != 0
                differs += value != ext_dim(i, c, a)
    assert higher and differs


def _realized(c: Module, a: Module) -> list[tuple[bool, ShortExactSequence]]:
    """The split class of Ext^1(c, a), each unit class and their sum,
    realized, each with whether it splits; none when Ext^1(c, a) is zero."""
    space = ext1_space(c, a)
    if space.dim == 0:
        return []
    units = [[QQ(int(j == k)) for j in range(space.dim)] for k in range(space.dim)]
    classes = [[QQ(0)] * space.dim] + units + ([[QQ(1)] * space.dim] if space.dim > 1 else [])
    return [(not any(coords), space.realize(coords)) for coords in classes]


def _assert_exactness_routes_agree(sequences, functors) -> None:
    """``is_F_exact`` against the rank and pairing routes on every sequence
    and functor; for each variance some non-split sequence is accepted and
    some rejected."""
    verdicts = set()
    for split, eta in sequences:
        for functor in functors:
            verdict = is_F_exact(eta, functor)
            where = (functor.variance, eta)
            assert verdict == is_F_exact_by_rank(eta, functor), where
            assert verdict == is_F_exact_by_pairing(eta, functor), where
            assert verdict or not split, where
            if not split:
                verdicts.add((functor.variance, verdict))
    assert verdicts == {(v, b) for v in VARIANCES for b in (True, False)}


def test_exactness_routes_agree_on_realized_classes_of_cyclic3(ctx):
    modules = [ctx[k] for k in ("u13", "u21", "u22", "s1", "s2", "s3")]
    sequences = [pair for c, a in itertools.product(modules, repeat=2) for pair in _realized(c, a)]
    functors = [ctx["f2"], ctx["f1"], ctx["g1"], contravariant_functor(ctx["m2"])]
    _assert_exactness_routes_agree(sequences, functors)


@pytest.mark.parametrize(
    "make", [_commuting_square, _a3_zero_relation, _a4_rad2], ids=lambda make: make.__name__.strip("_")
)
def test_exactness_routes_agree_on_realized_classes_off_the_cyclic_algebras(make):
    alg = make()
    modules = [x for x in _test_modules(alg) if x.summands is None]
    sequences = [pair for c, a in itertools.product(modules, repeat=2) for pair in _realized(c, a)]
    functors = [
        build(simple_module(alg, v))
        for v in range(alg.quiver.vertex_count)
        for build in (covariant_functor, contravariant_functor)
    ]
    _assert_exactness_routes_agree(sequences, functors)


@pytest.mark.parametrize(
    "make", [_commuting_square, _a3_zero_relation, _a4_rad2, _local_two_loops],
    ids=lambda make: make.__name__.strip("_"),
)
def test_hom_out_of_built_modules_matches_its_dual(make):
    # the dual read of relhom: dim Hom(X, Y) = dim Hom_op(DY, DX), on the
    # plain kernels and cokernels of the first basis map and of the sum of
    # the basis maps between any two test modules, told apart by their
    # matrices
    alg = make()
    modules = _test_modules(alg)
    built = {}
    for u, w in itertools.product(modules, repeat=2):
        basis = hom_basis(u, w)
        for phi in basis[:1] + ([sum(basis[1:], basis[0])] if len(basis) > 1 else []):
            for x in (kernel(phi)[0], cokernel(phi)[0]):
                key = (x.dims, tuple(tuple(map(tuple, m.to_lists())) for m in x.arrow_maps))
                if not x.is_zero():
                    built.setdefault(key, x)
    dims = [
        (hom_dim(x, y), hom_dim(dualize(y), dualize(x)))
        for x, y in itertools.product(built.values(), repeat=2)
    ]
    assert all(here == there for here, there in dims)
    assert max(here for here, _ in dims) > 1


@pytest.mark.parametrize("i", [1, 2, 3])
@pytest.mark.parametrize("variance", ["covariant", "contravariant"])
def test_relative_ext_builds_i_approximations(approximations, variance, i):
    # a fresh algebra, so nothing is cached.  Relative Ext is added over the
    # atoms of c, neither projective nor an atom of the test module, so each
    # is resolved: degree i reads the i-th relative syzygy of each atom, which
    # needs terms 0..i-1 only, one approximation each.  Only a syzygy that
    # vanishes before the i-th stops an atom's count short (S(2) under the
    # contravariant functor, whose second syzygy is 0)
    alg = AlgebraPresentation.truncated(cyclic_quiver(3), 5, name="cyc3-trunc5")
    m1, m2 = (parse_module_expression(alg, e) for e in (M1_EXPR, M2_EXPR))
    functor = covariant_functor(m2) if variance == "covariant" else contravariant_functor(m1)
    c = parse_module_expression(alg, "P(3)/rad^2+S(2)")
    a = parse_module_expression(alg, "P(1)/rad^2")
    value = ext_F_dim(i, c, a, functor)
    built = list(approximations)
    expected = []
    for atom in nonzero_atoms(c):
        assert not in_F_projectives(atom, functor)
        res = F_resolution(atom, functor)
        syzygies = [res.syzygy(k) for k in range(i)]
        expected += [s.dims for s in itertools.takewhile(lambda s: not s.is_zero(), syzygies)]
    # the atoms' syzygies 0..i-1, in order, each approximated once: never the i-th
    assert built == expected
    short = variance == "contravariant" and i == 3
    assert len(built) == 2 * i - short
    assert value == ext_F_dim(i, c, a, functor, via="injective")


def test_covariant_equals_contravariant_at_shifted_module(ctx, nonsplit):
    # the covariant functor of a module and the contravariant functor of its
    # dual-of-transpose carve out the same sequences
    shifted = contravariant_functor(dtr(ctx["m2"]))
    assert is_F_exact(nonsplit, ctx["f2"]) == is_F_exact(nonsplit, shifted)
    space = ext1_space(ctx["s1"], ctx["s2"])
    for coords in [(QQ(0),), (QQ(1),), (QQ(-2),)]:
        eta = space.realize(coords)
        assert is_F_exact(eta, ctx["f2"]) == is_F_exact(eta, shifted)
    assert F_subgroup_dim(ctx["u21"], ctx["u13"], ctx["f2"]) == F_subgroup_dim(
        ctx["u21"], ctx["u13"], shifted
    )


def test_relative_pd_of_the_resolved_module(ctx):
    assert pd_F_le(ctx["u13"], ctx["f2"], 2)
    assert not pd_F_le(ctx["u13"], ctx["f2"], 1)
    assert not pd_F_le(ctx["u13"], ctx["f2"], 0)
    assert pd_F_le(ctx["u21"], ctx["f2"], 0)         # relative projective already


def test_minimized_and_canonical_pd_agree():
    # canonical resolutions multiply dimensions by roughly the size of the
    # relative projective generator per step, so the cross-check lives on a
    # hereditary 3-vertex instance where every kernel is hand-checkable
    alg = AlgebraPresentation(linear_quiver(3), [], 3, name="A3")
    P = lambda e: parse_module_expression(alg, e)
    freg = covariant_functor(regular_module(alg))
    fmix = covariant_functor(direct_sum(alg, [regular_module(alg), P("S(2)")]))
    for functor in (freg, fmix):
        for x, profile in [
            (P("S(1)"), [False, True]),
            (P("S(3)"), [True, True]),
            (P("P(1)/rad^2"), [False, True]),
        ]:
            assert [pd_F_le(x, functor, n) for n in (0, 1)] == profile
            assert [canonical_pd_F_le(x, functor, n) for n in (0, 1)] == profile
            coresolution = canonical_F_coresolution(x, functor)
            assert [in_F_injectives(coresolution.syzygy(n), functor) for n in (0, 1)] == [
                id_F_le(x, functor, n) for n in (0, 1)
            ]


def test_relative_id_bounds(ctx):
    assert id_F_le(ctx["u13"], ctx["g1"], 0)         # m1-summand is relative injective
    assert id_F_le(ctx["u21"], ctx["f2"], 2)
    assert not id_F_le(ctx["u21"], ctx["f2"], 1)


def test_relative_gldim_bound(ctx):
    assert gldim_F_le(ctx["f1"], 2)
    assert not gldim_F_le(ctx["f1"], 1)
    assert gldim_F_le(ctx["f2"], 2)
    assert gldim_F_le(ctx["f1"], 2, witnesses=[ctx["u13"], ctx["s1"]])
    with pytest.raises(AlgebraError):
        gldim_F_le(ctx["f1"], 2, witnesses=[])


def test_coresolution_terminates_on_relative_injective(ctx):
    res = F_coresolution(ctx["u13"], ctx["g1"])
    res.ensure_terms(1)
    assert res.augmentation.is_mono()
    assert res.syzygy(1).is_zero()                   # u13 is itself F-injective


def test_agreement_hypothesis_failure_is_reported(ctx):
    inds = enumerate_indecomposables_nakayama(ctx["alg"])
    report = check_absolute_relative_agreement(ctx["m2"], ctx["m1"], 1, inds[:4])
    assert isinstance(report, AgreementReport)
    assert report.generator_ok and report.cogenerator_ok
    assert report.orthogonality_failures == [(1, 1)]
    assert not report.hypothesis_ok
    assert not report.ok
    assert report.comparisons == 0


def test_agreement_generator_failure_is_reported(ctx):
    # m1 contains no copy of P(1)/rad^2's projective cover pattern: dropping
    # P(2) from the generator breaks the hypothesis without raising
    small = parse_module_expression(ctx["alg"], "P(1)+P(3)+S(1)")
    report = check_absolute_relative_agreement(small, ctx["m1"], 1, [ctx["s1"]])
    assert not report.generator_ok
    assert not report.ok
    assert report.comparisons == 0


def test_agreement_vacuous_at_degree_zero(ctx):
    report = check_absolute_relative_agreement(ctx["m2"], ctx["m1"], 0, [ctx["s1"]])
    assert report.ok
    assert report.comparisons == 0


def test_agreement_for_projective_injective_bimodule(ctx):
    lam_dlam = direct_sum(
        ctx["alg"], [regular_module(ctx["alg"]), cogenerator_module(ctx["alg"])]
    )
    inds = enumerate_indecomposables_nakayama(ctx["alg"])
    report = check_absolute_relative_agreement(lam_dlam, lam_dlam, 2, inds)
    assert report.hypothesis_ok
    assert report.mismatches == []
    assert report.ok
    assert report.comparisons == 2 * 2 * len(inds)


def test_relative_resolutions_are_cached_once(ctx):
    # nothing steers the approximations: one cached chain of terms per module
    # and functor, shared by every later call and extended through any of them
    for build in (F_resolution, F_coresolution):
        first = build(ctx["u13"], ctx["f2"]).terms
        build(ctx["u13"], ctx["f2"]).ensure_terms(2)
        assert build(ctx["u13"], ctx["f2"]).terms is first
        assert len(first) >= 2


@pytest.fixture
def presented(monkeypatch):
    """The modules ``rep.presentation`` computes a cover for (the projective
    and sum cases need none), in call order."""
    modules = []
    real = rep._cover_maps

    def counted(x, gens):
        if sys._getframe(1).f_code.co_name == "presentation":
            modules.append(x)
        return real(x, gens)

    monkeypatch.setattr(rep, "_cover_maps", counted)
    return modules


@pytest.mark.parametrize("i", [1, 2])
@pytest.mark.parametrize("variance", VARIANCES)
def test_relative_queries_present_no_module_they_build(presented, variance, i):
    # a fresh algebra, so nothing is cached: the relative syzygies and the
    # realized middle terms are read on the dual side and never presented,
    # while the atoms they are read against are
    alg = AlgebraPresentation.truncated(cyclic_quiver(3), 5, name="cyc3-trunc5")
    m1, m2 = (parse_module_expression(alg, e) for e in (M1_EXPR, M2_EXPR))
    functor = covariant_functor(m2) if variance == "covariant" else contravariant_functor(m1)
    c = parse_module_expression(alg, "P(3)/rad^2+S(2)")
    a = parse_module_expression(alg, "P(1)/rad^2")
    value = ext_F_dim(i, c, a, functor)
    res = F_resolution(c, functor)
    syzygies = [res.syzygy(j) for j in range(1, i + 1)]
    sequences = [eta for _, eta in _realized(a, parse_module_expression(alg, "P(3)/rad^2"))]
    verdicts = [is_F_exact(eta, functor) for eta in sequences]
    built = syzygies + [eta.middle for eta in sequences]
    assert presented and not any(x is y for x in presented for y in built)
    assert all(not x.is_zero() for x in built)
    # the answers, read afterwards by routes that present what they build
    assert value == ext_F_dim(i, c, a, functor, via="injective")
    assert verdicts == [is_F_exact_by_rank(eta, functor) for eta in sequences] == [True, False]

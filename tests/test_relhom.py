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

import pytest

from relrep import homology, relhom
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
    minimal_right_approximation,
    resolution_cohomology_dim,
    syzygy_lift,
    trd,
)
from relrep.relhom import (
    AgreementReport,
    ApproximationResult,
    F_coresolution,
    F_resolution,
    F_subgroup_dim,
    SubBifunctor,
    _canonical_right_approximation,
    check_absolute_relative_agreement,
    contravariant_functor,
    covariant_functor,
    ext_F_dim,
    gldim_F_le,
    id_F_le,
    in_F_injectives,
    in_F_projectives,
    is_F_exact,
    left_approximation,
    pd_F_le,
    resolution_step_sequence,
)
from relrep.rep import (
    Module,
    ShortExactSequence,
    cogenerator_module,
    direct_sum,
    enumerate_indecomposables_nakayama,
    hom_basis,
    hom_dim,
    is_isomorphic,
    kernel,
    parse_module_expression,
    regular_module,
    simple_module,
)
from conftest import M1_EXPR, M2_EXPR
from test_homology import _a3_zero_relation, _a4_rad2, _commuting_square, _test_modules


# Test-only routes: the library decides membership by ``is_F_exact`` alone and
# builds its approximations inside the relative resolutions.


def is_F_exact_by_dims(eta: ShortExactSequence, f: SubBifunctor) -> bool:
    """Membership by dimension count: hom is left exact, so the sequence is
    functor-exact exactly when the middle hom dimension is the sum of the
    outer two."""
    m = f.module
    if f.variance == "covariant":
        return hom_dim(m, eta.middle) == hom_dim(m, eta.sub) + hom_dim(m, eta.quotient)
    return hom_dim(eta.middle, m) == hom_dim(eta.sub, m) + hom_dim(eta.quotient, m)


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


def right_approximation(x: Module, m: Module, minimize: bool = True) -> ApproximationResult:
    """A right add(m)-approximation of x: every map from a summand-of-m
    factors through it.  minimize=True certifies minimality; otherwise the
    canonical evaluation map is returned with no minimality claim."""
    if minimize:
        g = minimal_right_approximation(x, m)
    else:
        g = _canonical_right_approximation(x, m)
    ker, _ = kernel(g)
    return ApproximationResult(g, bool(minimize), ker)


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
    res = right_approximation(ctx["u13"], ctx["m2"])
    assert isinstance(res, ApproximationResult)
    assert res.morphism.source.dims == (3, 1, 2)     # S(1) + P(3)
    assert res.morphism.is_epi()
    assert res.minimal and is_right_minimal(res.morphism)
    assert res.kernel_or_cokernel.dims == (2, 1, 1)


def test_canonical_right_approximation(ctx):
    assert hom_dim(ctx["m2"], ctx["u13"]) == 4
    res = right_approximation(ctx["u13"], ctx["m2"], minimize=False)
    assert res.morphism.source.dims == (28, 24, 20)  # 4 copies of m2
    assert res.morphism.is_epi()
    assert not res.minimal
    assert res.kernel_or_cokernel.dims == (27, 24, 19)
    for psi in hom_basis(ctx["m2"], ctx["u13"]):
        assert factor_through(res.morphism, psi) is not None


def test_minimized_left_approximation(ctx):
    # S(3) is the socle of P(2), the only m1-atom receiving it
    res = left_approximation(ctx["s3"], ctx["m1"])
    assert res.morphism.target.dims == (1, 2, 2)
    assert res.morphism.is_mono()
    assert res.minimal and is_left_minimal(res.morphism)
    assert res.kernel_or_cokernel.dims == (1, 2, 1)


def test_resolution_reproduces_hand_built_chain(ctx):
    res = F_resolution(ctx["u13"], ctx["f2"], depth=3)
    assert res.terms[0].dims == (3, 1, 2)            # S(1) + P(3)
    assert res.terms[1].dims == (3, 2, 1)            # S(1) + P(1)
    assert res.syzygy(1).dims == (2, 1, 1)
    assert is_isomorphic(res.syzygy(2), ctx["u21"])
    assert res.syzygy(3).is_zero()
    assert res.augmentation.is_epi()
    assert (res.augmentation @ res.differentials[0]).is_zero()
    assert (res.differentials[0] @ res.differentials[1]).is_zero()


def test_resolution_steps_are_exact_for_both_functors(ctx):
    res = F_resolution(ctx["u13"], ctx["f2"], depth=3)
    for i in (1, 2):
        step = resolution_step_sequence(res, i)
        for functor in (ctx["f2"], ctx["g1"]):
            assert is_F_exact(step, functor)
            assert is_F_exact_by_dims(step, functor)
            assert is_F_exact_by_pairing(step, functor)


def test_nonsplit_sequence_rejected_by_both_functors(ctx, nonsplit):
    for functor in (ctx["f2"], ctx["g1"]):
        assert not is_F_exact(nonsplit, functor)
        assert not is_F_exact_by_dims(nonsplit, functor)
        assert not is_F_exact_by_pairing(nonsplit, functor)


def test_split_sequence_accepted_by_any_functor(ctx):
    split = ext1_space(ctx["u21"], ctx["u13"]).realize((QQ(0),))
    for functor in (ctx["f2"], ctx["g1"], ctx["f1"]):
        assert is_F_exact(split, functor)
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
    """The projective route (degree i off the i-th relative syzygy) against
    the injective route and against the full hom complex of the same
    relative resolution; returns the common value."""
    projective = ext_F_dim(i, c, a, functor, via="projective")
    assert projective == ext_F_dim(i, c, a, functor, via="injective"), (functor.variance, i, c.dims, a.dims)
    assert projective == resolution_cohomology_dim(F_resolution(c, functor), i, a), (functor.variance, i, c.dims, a.dims)
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


@pytest.fixture
def approximations(monkeypatch):
    """Counts minimal right approximations, wherever they are called from."""
    calls = []
    real = homology.minimal_right_approximation

    def counted(x, m):
        calls.append(x.dims)
        return real(x, m)

    for module in (homology, relhom):
        monkeypatch.setattr(module, "minimal_right_approximation", counted)
    return calls


@pytest.mark.parametrize("i", [1, 2, 3])
@pytest.mark.parametrize("variance", ["covariant", "contravariant"])
def test_relative_ext_builds_i_approximations(approximations, variance, i):
    # a fresh algebra, so nothing is cached: degree i reads the i-th relative
    # syzygy, which needs terms 0..i-1 only, one approximation each
    alg = AlgebraPresentation.truncated(cyclic_quiver(3), 5, name="cyc3-trunc5")
    m1, m2 = (parse_module_expression(alg, e) for e in (M1_EXPR, M2_EXPR))
    functor = covariant_functor(m2) if variance == "covariant" else contravariant_functor(m1)
    c = parse_module_expression(alg, "P(3)/rad^2+S(2)")
    a = parse_module_expression(alg, "P(1)/rad^2")
    value = ext_F_dim(i, c, a, functor)
    assert len(approximations) == i
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
            assert [pd_F_le(x, functor, n, minimize=False) for n in (0, 1)] == profile


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
    res = F_coresolution(ctx["u13"], ctx["g1"], depth=1)
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


def test_relative_resolutions_are_cached_per_minimize_flag(ctx):
    # nothing steers the approximations but ``minimize``: one cached chain
    # of terms per flag, shared by every later call with that flag
    for build in (F_resolution, F_coresolution):
        first = build(ctx["u13"], ctx["f2"]).terms
        assert build(ctx["u13"], ctx["f2"], depth=2).terms is first
        assert build(ctx["u13"], ctx["f2"], minimize=1).terms is first
        canonical = build(ctx["u13"], ctx["f2"], minimize=False).terms
        assert canonical is not first
        assert build(ctx["u13"], ctx["f2"], minimize=False).terms is canonical

"""Acceptance suite: nine exactly-reproducible criteria, one test each.

Every test asserts exact values (no tolerances) and prints a single
``CRITERION n: PASS`` line on success; stated runtime budgets are
enforced with wall-clock checks.
"""

import itertools
import random
import time

import pytest

from relrep.path_algebra import AlgebraPresentation, cyclic_quiver
from relrep.rep import (
    ShortExactSequence,
    cogenerator_module,
    cokernel,
    direct_sum,
    enumerate_indecomposables_nakayama,
    is_isomorphic,
    parse_module_expression,
    regular_module,
)
from relrep.homology import dtr, ext1_space, ext_dim, minimal_left_approximation, trd
from relrep.relhom import (
    F_subgroup_dim,
    contravariant_functor,
    covariant_functor,
    ext_F_dim,
    is_F_exact,
    pd_F_le,
)
from relrep.endo import (
    check_iyama_orthogonality,
    check_maximal_orthogonal,
    check_prop_gldim,
    end_algebra,
    gldim_le,
    search_exchange_sequence,
    verify_theorem,
)
from relhom_reference import canonical_pd_F_le


def _report(n: int, detail: str) -> None:
    print(f"CRITERION {n}: PASS — {detail}")


def test_criterion_1_example_reproduction_in_both_modes(m1, m2):
    start = time.monotonic()
    for module in (m1, m2):
        for mode in ("corollary", "enumeration"):
            result = check_maximal_orthogonal(module, 2, mode=mode)
            assert result.verdict, (mode, module.dims)
    elapsed = time.monotonic() - start
    assert elapsed < 30.0
    _report(1, f"both modules maximal 2-orthogonal in both modes ({elapsed:.1f}s)")


def test_criterion_2_connecting_sequence_relative_exactness(cyc3_5, m1, m2):
    base = parse_module_expression(cyc3_5, "P(1)+P(2)+P(3)+S(1)")
    x1 = parse_module_expression(cyc3_5, "P(3)/rad^2")
    x2 = parse_module_expression(cyc3_5, "P(1)/rad^2")
    f_con = contravariant_functor(m1)
    f_cov = covariant_functor(m2)

    first = minimal_left_approximation(x2, base)
    _, q1 = cokernel(first)
    ses1 = ShortExactSequence(first, q1)
    second = minimal_left_approximation(q1.target, base)
    _, q2 = cokernel(second)
    ses2 = ShortExactSequence(second, q2)
    assert is_isomorphic(q2.target, x1)
    for ses in (ses1, ses2):
        assert is_F_exact(ses, f_cov)
        assert is_F_exact(ses, f_con)

    for i in (1, 2, 3, 4):
        assert ext_F_dim(i, m1, m1, f_cov) == 0
        assert ext_F_dim(i, m2, m2, f_con) == 0

    nonsplit_low = ext_dim(1, x2, x1)
    nonsplit_pair = ext_dim(1, m2, m1)
    assert nonsplit_low >= 1
    assert nonsplit_pair >= 1
    _report(
        2,
        "both halves exact for both functors; relative groups vanish to degree 4; "
        f"absolute classes {nonsplit_low}, {nonsplit_pair}",
    )


def test_criterion_3_theorem_equivalence_and_mutations(cyc3_5, m1, m2):
    good = verify_theorem(m1, m2, 2)
    assert good.hypotheses_ok
    assert good.conditions_agree, "mixed verdict"
    assert good.all_true
    mutated_module = parse_module_expression(
        cyc3_5, "P(1)+P(2)+P(3)+S(1)+P(3)/rad^2+P(1)/rad^4"
    )
    bad = verify_theorem(m1, mutated_module, 2)
    assert bad.hypotheses_ok
    assert bad.conditions_agree, "mixed verdict"
    assert bad.flags == (False, False, False, False)
    _report(3, "four true flags on the main pair; four false flags on the mutation")


def test_criterion_4_global_dimension_property_suite():
    start = time.monotonic()
    instances = 0
    for vertices in (2, 3):
        for bound in (3, 4, 5):
            algebra = AlgebraPresentation.truncated(
                cyclic_quiver(vertices), bound, name=f"cyc{vertices}-trunc{bound}"
            )
            witnesses = enumerate_indecomposables_nakayama(algebra)
            lam = regular_module(algebra)
            dlam = cogenerator_module(algebra)
            for extra in witnesses:
                module = direct_sum(algebra, [lam, dlam, extra])
                for l in (1, 2, 3):
                    result = check_prop_gldim(module, l, witnesses=witnesses)
                    assert result.generator_cogenerator
                    assert result.agree, (vertices, bound, extra.dims, l, result.values)
                instances += 1
    elapsed = time.monotonic() - start
    assert instances >= 50
    assert elapsed < 300.0
    _report(4, f"{instances} generator-cogenerators, three-way agreement ({elapsed:.1f}s)")


def test_criterion_5_selfinjective_translate_agreement(cyc3_5):
    lam = regular_module(cyc3_5)
    checked = 0
    for uniserial in enumerate_indecomposables_nakayama(cyc3_5):
        variants = []
        for twisted in (uniserial, dtr(uniserial), trd(uniserial)):
            if twisted.total_dim == 0:
                variants.append(lam)
            else:
                variants.append(direct_sum(cyc3_5, [lam, twisted]))
        for l in (1, 2, 3):
            flags = {gldim_le(end_algebra(m)[0], l + 2) for m in variants}
            assert len(flags) == 1, (uniserial.dims, l)
            checked += 1
    _report(5, f"translate twists agree on {checked} (module, bound) pairs")


def test_criterion_6_functor_agreement_on_random_sequences(cyc3_5):
    rng = random.Random(20260825)
    pool = enumerate_indecomposables_nakayama(cyc3_5)

    def random_module(max_summands):
        picks = [rng.choice(pool) for _ in range(rng.randint(1, max_summands))]
        return direct_sum(cyc3_5, picks)

    checked = 0
    attempts = 0
    while checked < 200:
        attempts += 1
        assert attempts < 2000, "random sequence space exhausted"
        quotient = random_module(2)
        sub = random_module(2)
        space = ext1_space(quotient, sub)
        if space.dim == 0:
            continue
        coords = [rng.randint(-2, 2) for _ in range(space.dim)]
        sequence = space.realize(coords)
        tester = random_module(2)
        translated = dtr(tester)
        covariant = is_F_exact(sequence, covariant_functor(tester))
        contravariant = is_F_exact(sequence, contravariant_functor(translated))
        assert covariant == contravariant, (
            quotient.dims,
            sub.dims,
            coords,
            tester.dims,
        )
        checked += 1
    _report(6, f"{checked} random extensions agree under the translate swap")


def test_criterion_7_oracle_equivalences(cyc3_5):
    rng = random.Random(1517)
    pool = enumerate_indecomposables_nakayama(cyc3_5)

    def random_module(max_summands=2):
        picks = [rng.choice(pool) for _ in range(rng.randint(1, max_summands))]
        return direct_sum(cyc3_5, picks)

    # first-degree relative dimension equals the subgroup dimension
    triples = 0
    for _ in range(60):
        c, a, m = random_module(), random_module(), random_module()
        functor = (
            covariant_functor(m) if rng.random() < 0.5 else contravariant_functor(m)
        )
        assert ext_F_dim(1, c, a, functor) == F_subgroup_dim(c, a, functor)
        triples += 1

    # projective-side and injective-side absolute dimensions coincide
    pairs = 0
    for _ in range(100):
        x, y = random_module(), random_module()
        degree = rng.randint(1, 3)
        assert ext_dim(degree, x, y, via="projective") == ext_dim(
            degree, x, y, via="injective"
        )
        pairs += 1

    # the minimal relative resolutions and the canonical reference ones
    # (relhom_reference) bound dimensions identically;
    # canonical resolutions grow multiplicatively, so draw single summands
    comparisons = 0
    for _ in range(30):
        x, m = rng.choice(pool), rng.choice(pool)
        functor = (
            covariant_functor(m) if rng.random() < 0.5 else contravariant_functor(m)
        )
        bound = rng.randint(0, 1)
        assert pd_F_le(x, functor, bound) == canonical_pd_F_le(x, functor, bound)
        comparisons += 1
    _report(
        7,
        f"{triples} subgroup triples, {pairs} two-sided pairs, "
        f"{comparisons} resolution comparisons",
    )


def test_criterion_8_orthogonality_implication_and_converse_failure(m1, m2):
    total_pairs = 0
    expected_winners = {
        (2, 2): [((1, 0),), ((0, 1),)],
        (2, 3): [],
        (3, 2): [],
        (2, 4): [((1, 0), (2, 1)), ((0, 1), (1, 2))],
    }
    for (vertices, bound), expected in expected_winners.items():
        algebra = AlgebraPresentation.truncated(
            cyclic_quiver(vertices), bound, name=f"cyc{vertices}-trunc{bound}"
        )
        indecomposables = enumerate_indecomposables_nakayama(algebra)
        lam = regular_module(algebra)
        nonprojective = [x for x in indecomposables if x.total_dim < bound]
        winners = []
        for r in range(len(nonprojective) + 1):
            for combo in itertools.combinations(nonprojective, r):
                candidate = direct_sum(algebra, [lam, *combo])
                by_enum = check_maximal_orthogonal(
                    candidate, 1, mode="enumeration", witnesses=indecomposables
                )
                by_cor = check_maximal_orthogonal(candidate, 1, mode="corollary")
                assert by_enum.verdict == by_cor.verdict
                if by_enum.verdict:
                    winners.append((tuple(sorted(x.dims for x in combo)), candidate))
        assert [w[0] for w in winners] == expected, (vertices, bound)
        for (_, ma), (_, mb) in itertools.product(winners, repeat=2):
            check_iyama_orthogonality(ma, mb, 1, 1)  # raises on violation
            total_pairs += 1

    converse = check_iyama_orthogonality(m1, m2, 1, 2)
    assert not converse.hypothesis_holds
    assert converse.hypothesis_dims == [1]
    assert converse.conclusions_hold
    _report(
        8,
        f"{total_pairs} enumerated pairs satisfy the implication; "
        "the main pair fails the absolute hypothesis while both conclusions hold",
    )


def test_criterion_9_exchange_sequence_recovery(cyc3_5):
    base = parse_module_expression(cyc3_5, "P(1)+P(2)+P(3)+S(1)")
    x1 = parse_module_expression(cyc3_5, "P(3)/rad^2")
    x2 = parse_module_expression(cyc3_5, "P(1)/rad^2")
    result = search_exchange_sequence(base, x1, x2, max_len=1)
    assert result.found and not result.trivial
    assert all(result.conditions.values())
    expected_terms = [
        "P(1)/rad^2",
        "S(1)+P(1)",
        "S(1)+P(3)",
        "P(3)/rad^2",
    ]
    assert len(result.terms) == len(expected_terms)
    for term, expr in zip(result.terms, expected_terms):
        assert is_isomorphic(term, parse_module_expression(cyc3_5, expr))
    # at most (l - 1) + 1 = 2 middle terms for the bound l = 2
    assert result.length == 2
    _report(9, "recovered the connecting sequence term-by-term with 2 middle terms")

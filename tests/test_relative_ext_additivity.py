"""Relative Ext is additive over atoms and cached per atom pair and theory.

A functor of a test module depends on add(test module) alone, and its
relative Ext is an additive bifunctor.  So the projective route of
``ext_F_dim`` adds values over pairs of atoms, each cached under the degree,
the variance and the test module's atoms (its relative theory), and answers
0 with no resolution for a projective first atom, for a first atom of the
test module (covariant) and for a second atom of the test module
(contravariant).  The coresolution route works on the whole modules and is
the cross-check of all of it.
"""

import gc
import random
import weakref

import pytest

from relrep.path_algebra import AlgebraError, AlgebraPresentation, cyclic_quiver
from relrep.relhom import VARIANCES, contravariant_functor, covariant_functor, ext_F_dim
from relrep.rep import direct_sum, nonzero_atoms, parse_module_expression, proj_module
from test_cache import _collector_off

DEGREES = (1, 2, 3)


def _cyclic3() -> AlgebraPresentation:
    return AlgebraPresentation.truncated(cyclic_quiver(3), 5, name="cyclic3")


def _functor(variance: str, module):
    return covariant_functor(module) if variance == "covariant" else contravariant_functor(module)


def _both_routes(i, c, a, f) -> tuple[int, int]:
    return ext_F_dim(i, c, a, f), ext_F_dim(i, c, a, f, via="injective")


def _atom_terms(alg) -> list[str]:
    """Every non-projective uniserial, as a term: the atoms the sums are drawn from."""
    n = alg.quiver.vertex_count
    return [f"P({v})/rad^{k}" for v in range(1, n + 1) for k in range(1, alg.nilpotency_bound)]


def _seeded_sum(rng: random.Random, alg, terms, size: int):
    return parse_module_expression(alg, "+".join(rng.choice(terms) for _ in range(size)))


@pytest.mark.parametrize("seed", range(4))
def test_the_atom_sum_equals_the_whole_module_coresolution(seed):
    alg = _cyclic3()
    terms = _atom_terms(alg) + ["P(1)", "P(2)", "P(3)"]
    rng = random.Random(seed)
    nonzero = 0
    for variance in VARIANCES:
        m = _seeded_sum(rng, alg, terms, 2)
        c, a = _seeded_sum(rng, alg, terms, 3), _seeded_sum(rng, alg, terms, 2)
        f = _functor(variance, m)
        for i in DEGREES:
            request, whole = _both_routes(i, c, a, f)
            assert request == whole
            nonzero += request > 0
    # not vacuous: some answer of every seed is not 0
    assert nonzero


def test_the_zero_shortcuts_agree_with_the_coresolution(approximations):
    alg = _cyclic3()
    m = parse_module_expression(alg, "P(1)/rad^2+S(3)+P(2)/rad^4")
    others = [parse_module_expression(alg, e) for e in ("S(1)", "P(3)/rad^3", "P(2)/rad^2")]
    projectives = [proj_module(alg, v) for v in range(alg.quiver.vertex_count)]
    shortcuts = []
    for variance in VARIANCES:
        f = _functor(variance, m)
        firsts = projectives + (list(nonzero_atoms(m)) if variance == "covariant" else [])
        shortcuts += [(i, c, a, f) for i in DEGREES for c in firsts for a in others]
        if variance == "contravariant":
            shortcuts += [(i, c, a, f) for i in DEGREES for c in others for a in nonzero_atoms(m)]
    # the shortcut builds no relative resolution at all
    assert [ext_F_dim(*args) for args in shortcuts] == [0] * len(shortcuts)
    assert approximations == []
    assert [ext_F_dim(*args, via="injective") for args in shortcuts] == [0] * len(shortcuts)
    # not vacuous: under the other variance the same pairs have relative Ext
    cov, con = covariant_functor(m), contravariant_functor(m)
    assert any(ext_F_dim(i, c, a, con) for i in DEGREES for c in nonzero_atoms(m) for a in others)
    assert any(ext_F_dim(i, c, a, cov) for i in DEGREES for c in others for a in nonzero_atoms(m))


def test_a_fresh_sum_of_seen_atoms_under_a_fresh_functor_costs_lookups_alone(approximations):
    alg = _cyclic3()
    P = lambda e: parse_module_expression(alg, e)
    first = {
        variance: [ext_F_dim(i, P("P(3)/rad^2+S(2)+P(1)"), P("P(1)/rad^2+S(1)"), _functor(variance, P("S(1)+P(1)/rad^3"))) for i in DEGREES]
        for variance in VARIANCES
    }
    assert approximations
    approximations.clear()
    # other sums of the same atoms, in another order and with repeats, and
    # other test modules with the same atoms
    again = {
        variance: [
            ext_F_dim(i, P("S(2)+P(3)/rad^2+S(2)"), P("S(1)+P(1)/rad^2+S(1)"), _functor(variance, P("P(1)/rad^3+S(1)+S(1)")))
            for i in DEGREES
        ]
        for variance in VARIANCES
    }
    assert approximations == []
    c, a = P("S(2)+P(3)/rad^2+S(2)"), P("S(1)+P(1)/rad^2+S(1)")
    expected = {
        variance: [ext_F_dim(i, c, a, _functor(variance, P("S(1)+P(1)/rad^3")), via="injective") for i in DEGREES]
        for variance in VARIANCES
    }
    assert again == expected
    # not vacuous: the repeated atoms count, and some answer is not 0
    assert first != again and any(any(values) for values in again.values())


@pytest.mark.parametrize("covariant_first", [True, False])
def test_the_two_variances_keep_apart(covariant_first):
    # one test module, one pair of atoms, one degree: the covariant and the
    # contravariant answers differ, so a shared key would hand the second
    # request the first one's value
    alg = _cyclic3()
    c, a, m = (parse_module_expression(alg, e) for e in ("S(1)", "P(2)/rad^2", "P(1)/rad^2"))
    order = VARIANCES if covariant_first else VARIANCES[::-1]
    answers = {variance: _both_routes(1, c, a, _functor(variance, m)) for variance in order}
    assert answers == {"covariant": (0, 0), "contravariant": (1, 1)}


@pytest.mark.parametrize("order", [(0, 1), (1, 0)])
def test_two_theories_keep_apart(order):
    # one pair of atoms and one degree under two test modules with different
    # atoms: the answers differ, both ways round
    alg = _cyclic3()
    c, a = parse_module_expression(alg, "P(1)/rad^2"), parse_module_expression(alg, "P(1)/rad^3")
    modules = [parse_module_expression(alg, e) for e in ("S(1)", "P(2)/rad^2")]
    answers = {k: _both_routes(2, c, a, covariant_functor(modules[k])) for k in order}
    assert answers == {0: (1, 1), 1: (2, 2)}


def test_reference_counting_frees_a_fresh_sum_and_a_fresh_functor():
    alg = _cyclic3()
    atoms = [parse_module_expression(alg, e) for e in ("S(1)", "P(1)/rad^2", "P(3)/rad^2", "S(2)")]
    a = parse_module_expression(alg, "P(1)/rad^3")
    gc.collect()
    with _collector_off():
        c = direct_sum(alg, [atoms[2], atoms[3], atoms[2]])
        m = direct_sum(alg, [atoms[0], atoms[1]])
        functor = contravariant_functor(m)
        assert [ext_F_dim(i, c, a, functor) for i in DEGREES] == [ext_F_dim(i, c, a, functor, via="injective") for i in DEGREES]
        refs = [weakref.ref(o) for o in (c, m, functor, functor.projectives_module())]
        del c, m, functor
        # the values live on the atoms; the sum, the test module and the
        # functor with its resolutions go at once
        assert [r() for r in refs] == [None] * len(refs)
    # and the values cached on the atoms are ints: the cache holds no module
    values = [v for x in [*atoms, a] for slot, v in x._cache.items() if type(slot) is tuple and slot[0][0] == "ext_F"]
    assert values and all(type(v) is int for v in values)


@pytest.mark.parametrize("stranger", ["c", "a", "test module"])
@pytest.mark.parametrize("via", ["projective", "injective"])
def test_modules_over_another_algebra_are_refused(stranger, via):
    # P(1) is projective and S(1) an atom of the test module: the shortcuts
    # would answer 0, so the algebras are compared first
    home, other = _cyclic3(), _cyclic3()
    algebra = {k: other if k == stranger else home for k in ("c", "a", "test module")}
    c = parse_module_expression(algebra["c"], "P(1)")
    a = parse_module_expression(algebra["a"], "S(1)")
    m = parse_module_expression(algebra["test module"], "S(1)")
    for f in (covariant_functor(m), contravariant_functor(m)):
        with pytest.raises(AlgebraError, match="different algebras"):
            ext_F_dim(1, c, a, f, via=via)

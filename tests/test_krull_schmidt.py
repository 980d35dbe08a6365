"""Add-membership, isomorphism and minimal approximations past split local atoms.

The relative theory of an add-generator m depends on m only through add(m),
so ``in_add``, ``is_isomorphic`` and the minimal add(m)-approximations carry
every relative answer.  The pairs (x, m) below reach past atoms whose
endomorphism ring is QQ modulo its radical:

- over the Kronecker algebra, m = R2 + P(1) + P(2) and m = R2 + P(1) + P(2)
  + I(1) + I(2), with R2 the regular module at x^2 - 2, whose End is the
  field QQ(sqrt 2);
- over A3 with arrows 1 -> 3 <- 2, m = I(3)/rad^1, one parsed atom that is
  S(1) + S(2);
- over cyclic3, m a plain copy of P(1) + S(1): one atom, no summand layout.

For each pair the dimension vectors of the add(m) terms of the minimal
right and left approximations are pinned, and so is ``in_add``; each
approximation is checked to be minimal and to approximate, and ``in_add``
to agree with the split-solve route.  ``is_isomorphic`` is pinned both ways
on pairs of modules of a case with equal dimension vectors.
"""

from __future__ import annotations

from typing import Callable, NamedTuple

import pytest

from relrep.exact_linalg import Matrix
from relrep.homology import (
    factor_through,
    in_add,
    in_add_via_split,
    is_left_minimal,
    is_right_minimal,
    minimal_left_approximation,
    minimal_right_approximation,
)
from relrep.path_algebra import AlgebraPresentation, Arrow, Quiver
from relrep.rep import (
    Module,
    direct_sum,
    dualize_morphism,
    hom_basis,
    is_isomorphic,
    parse_module_expression,
)
from test_syzygy_steps import _cyc3_trunc5


def _kronecker() -> AlgebraPresentation:
    return AlgebraPresentation(Quiver(2, [Arrow("a", 0, 1), Arrow("b", 0, 1)]), [], 2, name="kronecker")


def _a3_sink() -> AlgebraPresentation:
    """A3 with arrows 1 -> 3 <- 2."""
    return AlgebraPresentation(Quiver(3, [Arrow("a0", 0, 2), Arrow("a1", 1, 2)]), [], 2, name="a3sink")


def _regular(alg, b: list) -> Module:
    """The Kronecker module (QQ^n, QQ^n; I, b)."""
    n = len(b)
    return Module(alg, (n, n), [Matrix.identity(n), Matrix.from_rows(b)])


# Kronecker modules that are no parsed term: R2 and R2' are isomorphic (End
# QQ(sqrt 2)), R3 has End QQ(sqrt 3), R0 is the regular simple at x
SPECIAL = {
    "R2": lambda alg: _regular(alg, [[0, 2], [1, 0]]),
    "R2'": lambda alg: _regular(alg, [[0, 1], [2, 0]]),
    "R3": lambda alg: _regular(alg, [[0, 3], [1, 0]]),
    "R0": lambda alg: _regular(alg, [[0]]),
}


def _build(alg, spec: str) -> Module:
    """The module of ``spec``: terms joined by '+', each a parsed term or a
    name of ``SPECIAL``; ``plain `` in front drops the summand layout."""
    plain = spec.startswith("plain ")
    terms = [
        SPECIAL[t](alg) if t in SPECIAL else parse_module_expression(alg, t)
        for t in spec.removeprefix("plain ").split("+")
    ]
    m = terms[0] if len(terms) == 1 else direct_sum(alg, terms)
    return Module(alg, m.dims, m.arrow_maps) if plain else m


KRONECKER_XS = ["R2", "R2'", "R2+R2", "R2+P(2)", "R3", "R0", "S(1)", "I(2)", "P(1)+R2'", "plain R2+P(1)"]
KRONECKER_ISO = [("R2", "R2'", True), ("R2", "R3", False), ("R2'", "R3", False)]


class Case(NamedTuple):
    make: Callable
    m: str
    xs: list
    # the dimension vectors of the add(m) terms of the minimal right and
    # left approximations of each x, and whether x lies in add(m)
    right: list
    left: list
    member: list
    # (a, b, whether a and b are isomorphic) for modules a, b of the case
    iso: list


CASES = [
    Case(
        _kronecker,
        "R2+P(1)+P(2)",
        KRONECKER_XS,
        [(2, 2), (2, 2), (4, 4), (2, 3), (2, 4), (1, 2), (2, 2), (2, 2), (3, 4), (3, 4)],
        [(2, 2), (2, 2), (4, 4), (2, 3), (0, 0), (0, 0), (0, 0), (0, 0), (3, 4), (3, 4)],
        [True, True, True, True, False, False, False, False, True, True],
        KRONECKER_ISO,
    ),
    Case(
        _kronecker,
        "R2+P(1)+P(2)+I(1)+I(2)",
        KRONECKER_XS,
        [(2, 2), (2, 2), (4, 4), (2, 3), (2, 4), (1, 2), (1, 0), (2, 1), (3, 4), (3, 4)],
        [(2, 2), (2, 2), (4, 4), (2, 3), (4, 2), (2, 1), (1, 0), (2, 1), (3, 4), (3, 4)],
        [True, True, True, True, False, False, True, True, True, True],
        KRONECKER_ISO,
    ),
    Case(
        _a3_sink,
        "I(3)/rad^1",
        ["S(1)", "S(2)", "S(3)", "P(1)", "I(3)", "S(1)+S(2)", "I(3)/rad^1+S(1)", "plain S(2)+S(1)"],
        [(1, 0, 0), (0, 1, 0), (0, 0, 0), (0, 0, 0), (0, 0, 0), (1, 1, 0), (2, 1, 0), (1, 1, 0)],
        [(1, 0, 0), (0, 1, 0), (0, 0, 0), (1, 0, 0), (1, 1, 0), (1, 1, 0), (2, 1, 0), (1, 1, 0)],
        [True, True, False, False, False, True, True, True],
        [("I(3)/rad^1", "S(1)+S(2)", True), ("S(1)+S(2)", "plain S(2)+S(1)", True)],
    ),
    Case(
        _cyc3_trunc5,
        "plain P(1)+S(1)",
        ["P(1)", "S(1)", "P(2)", "S(2)", "P(1)/rad^2", "P(1)+P(1)+S(1)", "P(1)+S(1)", "plain S(1)+P(1)"],
        [(2, 2, 1), (1, 0, 0), (2, 2, 1), (0, 0, 0), (2, 2, 1), (5, 4, 2), (3, 2, 1), (3, 2, 1)],
        [(2, 2, 1), (1, 0, 0), (2, 2, 1), (2, 2, 1), (3, 2, 1), (5, 4, 2), (3, 2, 1), (3, 2, 1)],
        [True, True, False, False, False, True, True, True],
        [("plain P(1)+S(1)", "P(1)+S(1)", True), ("P(1)+S(1)", "plain S(1)+P(1)", True)],
    ),
]
IDS = [f"{case.make.__name__.strip('_')}:{case.m}" for case in CASES]


@pytest.mark.parametrize("case", CASES, ids=IDS)
def test_approximations_and_add_membership(case):
    alg = case.make()
    m = _build(alg, case.m)
    right, left, member = [], [], []
    for spec in case.xs:
        x = _build(alg, spec)
        g = minimal_right_approximation(x, m)
        f = minimal_left_approximation(x, m)
        assert g.target is x and f.source is x
        assert is_right_minimal(g) and is_left_minimal(f)
        assert all(factor_through(g, b) is not None for b in hom_basis(m, x))
        # f approximates when its dual does
        dual_f = dualize_morphism(f)
        assert all(factor_through(dual_f, dualize_morphism(b)) is not None for b in hom_basis(x, m))
        right.append(g.source.dims)
        left.append(f.target.dims)
        member.append(in_add(x, m))
        assert member[-1] == in_add_via_split(x, m)
    assert (right, left, member) == (case.right, case.left, case.member)


@pytest.mark.parametrize("case", CASES, ids=IDS)
def test_isomorphism(case):
    alg = case.make()
    mods = {spec: _build(alg, spec) for spec in [case.m, *case.xs]}
    for a, b, answer in case.iso:
        assert is_isomorphic(mods[a], mods[b]) is answer
        assert is_isomorphic(mods[b], mods[a]) is answer

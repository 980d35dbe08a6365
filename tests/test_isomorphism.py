"""Isomorphism by Krull-Schmidt alone.

``is_isomorphic`` answers "false" from the dimension vectors or from
unequal multiplicities of a local part of x's atoms (y's when only y is a
sum), and "true" from equal multiplicities: equal multiplicities make x a
summand of y, and equal dimensions make it all of y.  An atom that
``local_parts`` cannot decompose is refused, even when x and y are the same
matrices.  The randomized search it replaced is kept below as the
reference, with the invariants it read first (radical layers and socle, the
four hom dimensions): on the syzygy-step corpus the two agree.

On a Nakayama algebra the radical layers already fix a module (they give,
for every k, the tops of the uniserial summands longer than k), so a pair
that passes every invariant and is not isomorphic needs another algebra: the
four-subspace quiver, whose two modules X and Y of dimension (1,1,1,1;2)
below are bricks with nonzero maps both ways, the same radical layers and
the same socle.
"""

import itertools
import random

import pytest

from relrep import rep
from relrep.exact_linalg import Matrix
from relrep.path_algebra import AlgebraError, AlgebraPresentation, Arrow, Quiver
from relrep.rep import (
    Module,
    _split_local,
    direct_sum,
    hom_dim,
    hom_space,
    is_isomorphic,
    parse_module_expression,
    radical_spans,
    simple_module,
)
from hom_reference import socle_subspaces
from test_homology import _kronecker
from test_rep import _kronecker_at
from test_syzygy_steps import ALGEBRAS, _built, _cyc3_trunc5, _parsed, _tilted


def _radical_fingerprint(m: Module) -> tuple:
    """The dimension vector, the per-vertex dimensions of rad^k m for k = 1
    until they vanish, and the per-vertex dimensions of the socle."""
    out = [m.dims]
    for k in range(1, m.total_dim + 2):
        dims = tuple(s.rank() for s in radical_spans(m, k))
        out.append(dims)
        if not any(dims):
            break
    out.append(tuple(s.cols for s in socle_subspaces(m)))
    return tuple(out)


def _reference_is_isomorphic(x: Module, y: Module, seed: int = 0) -> bool:
    """The earlier test: the invariants, then 32 seeded random combinations of
    a hom basis, the grid {-2..2}^k when it has at most 200,000 points, else
    512 more random combinations; "false" when none is invertible."""
    if x is y:
        return True
    if x.algebra is not y.algebra or x.dims != y.dims:
        return False
    if x.total_dim == 0:
        return True
    if _radical_fingerprint(x) != _radical_fingerprint(y):
        return False
    hom_xy = hom_space(x, y)
    k = hom_xy.dim
    if k == 0 or hom_dim(y, x) != k:
        return False
    de_x = hom_dim(x, x)
    if de_x != hom_dim(y, y) or de_x != k:
        return False

    def try_coeffs(cs) -> bool:
        return hom_xy.from_coords(cs).is_iso()

    rng = random.Random(seed)
    for _ in range(32):
        if try_coeffs([rng.randint(-8, 8) for _ in range(k)]):
            return True
    if 5**k <= 200_000:
        return any(try_coeffs(cs) for cs in itertools.product(range(-2, 3), repeat=k))
    return any(try_coeffs([rng.randint(-32, 32) for _ in range(k)]) for _ in range(512))


def _plain(m: Module) -> Module:
    """The same matrices with no summand layout: one atom."""
    return Module(m.algebra, m.dims, m.arrow_maps)


@pytest.fixture
def multiplicity_calls(monkeypatch):
    """Counts the multiplicities the Krull-Schmidt route reads."""
    calls = []
    real = rep._multiplicity

    def counted(z, a):
        calls.append((z, a))
        return real(z, a)

    monkeypatch.setattr(rep, "_multiplicity", counted)
    return calls


def _four_subspace():
    quiver = Quiver(5, [Arrow(f"a{i}", i, 4) for i in range(4)])
    return AlgebraPresentation(quiver, [], 2, name="four-subspace")


def _lines(alg, *vectors) -> Module:
    """Four lines in a plane: the arrow i -> 4 sends 1 to ``vectors[i]``."""
    return Module(alg, (1, 1, 1, 1, 2), [Matrix.from_rows([[a], [b]]) for a, b in vectors])


def _kronecker_regular(alg, lam) -> Module:
    return Module(alg, (1, 1), [Matrix.from_rows([[1]]), Matrix.from_rows([[lam]])])


# -- the Krull-Schmidt route --------------------------------------------------------


def test_summand_free_copies_are_decided_by_multiplicities_on_cyclic3(multiplicity_calls):
    alg = _cyc3_trunc5()
    for expr in ("P(1)+S(1)", "P(1)/rad^2+S(3)+S(3)", "P(2)/rad^3+P(2)/rad^3"):
        registered = parse_module_expression(alg, expr)
        flipped = parse_module_expression(alg, "+".join(reversed(expr.split("+"))))
        copy = _plain(registered)
        assert not _split_local(copy)
        assert is_isomorphic(copy, registered) and is_isomorphic(registered, copy)
        assert is_isomorphic(copy, flipped) and is_isomorphic(flipped, copy)
    assert multiplicity_calls
    # a different sum with the same dimension vector has other multiplicities
    other = parse_module_expression(alg, "P(1)/rad^4+S(1)+S(2)")
    assert not is_isomorphic(_plain(parse_module_expression(alg, "P(1)+S(1)")), other)


def test_a_plain_module_against_a_sum_reads_the_sum():
    # isomorphism is symmetric: with y a sum and x not, the test reads y's
    # known atoms, and x is not split by Fitting's lemma
    alg = _cyc3_trunc5()
    reg = parse_module_expression(alg, "P(1)+P(1)/rad^2+S(3)+P(2)/rad^3")
    copy = _plain(reg)
    assert is_isomorphic(copy, reg)
    assert "local parts" not in copy._cache


def test_summand_free_copies_are_decided_by_multiplicities_on_the_kronecker_quiver(
    multiplicity_calls,
):
    alg = _kronecker()
    r0, r1, r2 = (_kronecker_regular(alg, lam) for lam in (0, 1, 2))
    registered = direct_sum(alg, [r0, r1])
    copy = _plain(registered)
    assert not _split_local(copy)
    assert is_isomorphic(copy, registered) and is_isomorphic(registered, copy)
    assert is_isomorphic(copy, direct_sum(alg, [r1, r0]))
    assert multiplicity_calls
    # R(0)+R(2) and R(0)+R(0) hold R(1) fewer times than R(0)+R(1) does
    assert not is_isomorphic(copy, direct_sum(alg, [r0, r2]))
    assert not is_isomorphic(copy, direct_sum(alg, [r0, r0]))


def test_a_false_with_every_invariant_equal_comes_from_a_multiplicity(multiplicity_calls):
    alg = _four_subspace()
    # X holds the regular simple (1,1,0,0;1), Y holds (0,0,1,1;1)
    x = _lines(alg, (1, 0), (1, 0), (0, 1), (1, 1))
    y = _lines(alg, (0, 1), (1, 1), (1, 0), (1, 0))
    s = simple_module(alg, 0)
    a = _plain(direct_sum(alg, [x, s]))
    b = direct_sum(alg, [s, y])
    # every equal-dims pair reads multiplicities, the local bricks X and Y too
    for p, q in ((x, y), (a, b)):
        assert p.dims == q.dims
        assert _radical_fingerprint(p) == _radical_fingerprint(q)
        k = hom_dim(p, q)
        assert k > 0 and hom_dim(q, p) == hom_dim(p, p) == hom_dim(q, q) == k
        del multiplicity_calls[:]
        assert not is_isomorphic(p, q) and not is_isomorphic(q, p)
        assert multiplicity_calls
    assert is_isomorphic(a, direct_sum(alg, [s, x]))


def test_plain_sums_with_equal_invariants_are_decided_false_both_ways():
    alg = _four_subspace()
    x = _lines(alg, (1, 0), (1, 0), (0, 1), (1, 1))
    y = _lines(alg, (0, 1), (1, 1), (1, 0), (1, 0))
    s = simple_module(alg, 0)
    a = _plain(direct_sum(alg, [x, s]))
    b = _plain(direct_sum(alg, [s, y]))
    assert not is_isomorphic(a, b) and not is_isomorphic(b, a)


def test_a_sum_with_an_atom_that_local_parts_refuses_is_refused():
    # End R = QQ[x]/(x^4 - 2), a field past the cheap local certificate
    r = _kronecker_at([-2, 0, 0, 0])
    p = simple_module(r.algebra, 0)
    with pytest.raises(AlgebraError, match="atom decomposition undecided"):
        is_isomorphic(direct_sum(r.algebra, [r, p]), direct_sum(r.algebra, [p, r]))


def test_an_atom_that_local_parts_refuses_is_refused_against_its_own_copy():
    # the same matrices: the answer still reads r's local parts
    r = _kronecker_at([-2, 0, 0, 0])
    with pytest.raises(AlgebraError, match="atom decomposition undecided"):
        is_isomorphic(r, _plain(r))


# -- agreement with the randomized search -------------------------------------------


def corpus_checks(alg) -> list[tuple[Module, Module]]:
    """The equal-dims pairs over the syzygy-step corpus of ``alg``: its split
    local indecomposables pairwise, then the two-atom sums of its distinct
    indecomposables against each other, and each summand-free sum against
    the same sum in the other order."""
    corpus = _parsed(alg) + _built(alg) + _tilted(alg)
    atoms = [x for x in corpus if x.algebra is alg and x.summands is None and _split_local(x)]
    distinct: list[Module] = []
    for u in atoms:
        if not any(_reference_is_isomorphic(u, r) for r in distinct):
            distinct.append(u)
    pairs = list(itertools.combinations_with_replacement(distinct, 2))
    sums = [direct_sum(alg, [u, v]) for u, v in pairs]
    checks = [(x, y) for x, y in itertools.combinations(atoms + sums, 2) if x.dims == y.dims]
    checks += [(_plain(m), direct_sum(alg, [v, u])) for m, (u, v) in zip(sums, pairs)]
    return checks


@pytest.mark.parametrize("make", ALGEBRAS, ids=lambda make: make.__name__.strip("_"))
def test_agrees_with_the_randomized_search_on_the_corpus(make):
    answers = []
    for x, y in corpus_checks(make()):
        answers.append(is_isomorphic(x, y))
        assert answers[-1] == _reference_is_isomorphic(x, y), (x.dims, y.dims)
    assert True in answers and False in answers

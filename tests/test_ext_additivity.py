"""Ext is additive over direct sums: the per-atom-pair route against the
whole-module routes.

``ext_dim`` (via="projective") adds values cached per atom pair.  The
injective route and ``ext_dims_up_to`` (one resolution of the whole first
argument) work on the whole modules, so each checks the additivity as well
as the values.  The corpus of each of the five test algebras has sums with
repeated atoms, nested sums, zero summands and atoms that are not split
local.
"""

import itertools

import pytest

from relrep import homology, rep
from relrep.endo import check_maximal_orthogonal
from relrep.homology import ext_dim
from relrep.path_algebra import AlgebraPresentation, cyclic_quiver
from relrep.rep import (
    Module,
    _split_local,
    direct_sum,
    enumerate_indecomposables_nakayama,
    inj_module,
    proj_module,
    regular_module,
    simple_module,
    zero_module,
)
from test_homology import ext_dims_up_to
from test_syzygy_steps import ALGEBRAS

DEGREES = (1, 2, 3)


def _corpus(alg) -> list[Module]:
    """The simples (S(1) first, S(n) last), an injective, a decomposable
    atom, sums with repeated atoms, nested sums and zero summands.  Vertex 1
    is a source of every quiver here but the cyclic one and vertex n a sink,
    so S(1) has extensions into the corpus and S(n) extensions out of it."""
    n = alg.quiver.vertex_count
    s = [simple_module(alg, v) for v in range(n)]
    mixed = direct_sum(alg, [s[0], proj_module(alg, n - 1), inj_module(alg, 0)])
    # the same matrices with no summand layout: one atom, decomposable
    plain = Module(alg, mixed.dims, mixed.arrow_maps)
    assert not _split_local(plain)
    zero = zero_module(alg)
    return [
        *s,
        inj_module(alg, n - 1),
        plain,
        direct_sum(alg, [s[0], s[0], s[-1]]),
        direct_sum(alg, [s[-1], s[-1], s[0]]),
        direct_sum(alg, [direct_sum(alg, [s[0], inj_module(alg, n - 1)]), zero, direct_sum(alg, [zero, s[0]])]),
        direct_sum(alg, [plain, s[-1], zero]),
    ]


@pytest.mark.parametrize("make", ALGEBRAS, ids=lambda make: make.__name__.strip("_"))
def test_additive_ext_matches_the_whole_module_routes(make):
    alg = make()
    modules = _corpus(alg)
    values = {}
    for (s, x), (t, y) in itertools.product(enumerate(modules), repeat=2):
        whole = ext_dims_up_to(DEGREES[-1], x, y)
        for i in DEGREES:
            additive = values[i, s, t] = ext_dim(i, x, y)
            assert additive == whole[i] == ext_dim(i, x, y, via="injective"), (alg.name, i, x.dims, y.dims)
    # not vacuous: a route that drops repeated atoms or confuses the order
    # of a pair fails, since S(1) has extensions into the corpus, S(n) out
    # of it, and some pair has different Ext each way
    n = alg.quiver.vertex_count
    assert any(values[i, 0, t] for i in DEGREES for t in range(len(modules)))
    assert any(values[i, s, n - 1] for i in DEGREES for s in range(len(modules)))
    assert any(values[i, s, t] != values[i, t, s] for i, s, t in values)


@pytest.fixture
def spies(monkeypatch):
    """Counts Ext computations, multiplicity lookups in ``homology`` and
    multiplicity computations."""
    calls = {"ext": 0, "multiplicity": 0, "pairing": 0}

    def counting(module, name, key):
        real = getattr(module, name)

        def counted(*args):
            calls[key] += 1
            return real(*args)

        monkeypatch.setattr(module, name, counted)

    counting(homology, "resolution_cohomology_dim", "ext")
    counting(homology, "_multiplicity", "multiplicity")
    counting(rep, "_pairing_rank", "pairing")
    return calls


def test_a_fresh_sum_of_seen_atoms_costs_lookups_alone(spies):
    alg = AlgebraPresentation.truncated(cyclic_quiver(3), 3, name="cyc3-trunc3")
    witnesses = enumerate_indecomposables_nakayama(alg)
    lam = regular_module(alg)
    combo = [x for x in witnesses if x.total_dim < 3][:2]
    first = check_maximal_orthogonal(direct_sum(alg, [lam, *combo]), 1, mode="enumeration", witnesses=witnesses)
    assert spies["ext"] and spies["pairing"]
    for key in spies:
        spies[key] = 0
    again = check_maximal_orthogonal(direct_sum(alg, [lam, *combo]), 1, mode="enumeration", witnesses=witnesses)
    assert again == first
    # no Ext and no multiplicity is computed again, and the multiplicities
    # are read from the cache
    assert spies["ext"] == 0
    assert spies["pairing"] == 0
    assert spies["multiplicity"] > 0

"""Ext is additive over direct sums: the per-atom-pair routes against the
whole-module routes.

``ext_dim`` (via="projective") adds values cached per atom pair.  The
injective route and ``ext_dims_up_to`` (one resolution of the whole first
argument) work on the whole modules, so each checks the additivity as well
as the values.  The corpus of each of the five test algebras has sums with
repeated atoms, nested sums, zero summands and atoms that are not split
local.

The first edge of the projective resolution of a sum of atoms with one top
generator each, and the core of ``ext1_space`` on a sum, are assembled from
the atoms' cached pieces.  They must be the very matrices that
``rep.projective_cover`` and ``rep.kernel`` give on the whole sum, and the
very fields that Hom(K, a) gives on that kernel, or class coordinates move.
"""

import itertools
import json
import random
from pathlib import Path

import pytest

from relrep import homology, rep
from relrep.endo import check_maximal_orthogonal
from relrep.exact_linalg import complement_projection
from relrep.homology import ext1_space, ext_dim, projective_resolution, syzygy_lift
from relrep.path_algebra import AlgebraPresentation, cyclic_quiver
from relrep.relhom import F_subgroup_dim, contravariant_functor, covariant_functor
from relrep.rep import (
    Module,
    _split_local,
    composite_coords,
    direct_sum,
    enumerate_indecomposables_nakayama,
    hom_basis,
    hom_space,
    inj_module,
    parse_module_expression,
    proj_module,
    regular_module,
    simple_module,
)
from conftest import zero_module
from test_ext1_classes import ALGEBRAS as CLASS_ALGEBRAS
from test_ext1_classes import _module, _pairs
from test_homology import ext_dims_up_to, pd_le
from test_syzygy_steps import ALGEBRAS

CATALOG = Path(__file__).resolve().parent.parent / "bench" / "data" / "ext_catalog.json"

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
    # the clauses walk every witness; they are built on first read
    assert first.clauses
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


# -- Ext^1 of sums from the atoms' pieces -------------------------------------------


def _cyclic3():
    return AlgebraPresentation.truncated(cyclic_quiver(3), 5, name="cyclic3")


def _reference(c: Module, a: Module):
    """The first edge of c and the fields of Ext^1(c, a), on the whole
    modules: the cover, its kernel, and Hom(K, a) reduced by the
    restrictions of Hom(P, a)."""
    cover = rep.projective_cover(c)
    k, incl = rep.kernel(cover)
    restrictions = composite_coords(hom_space(cover.source, a), incl)
    cocycles, free, change = homology._entry_coordinates(hom_space(k, a))
    reducer, section_idx = complement_projection(change @ restrictions)
    return (cover, k, incl), (cocycles, free, reducer, section_idx)


def _edge_data(cover, k, incl) -> tuple:
    p0 = cover.source
    return cover.maps, p0.dims, p0.arrow_maps, [s._proj_vertex for s in p0.summands], k.dims, k.arrow_maps, incl.maps


def _edge(res) -> tuple:
    k, incl = res.syzygy_edge(1)
    return _edge_data(res.augmentation, k, incl)


def _fields(space):
    return space._cocycles, space._free, space._reducer, space._section_idx


def _assert_matches_the_whole_modules(c: Module, a: Module) -> None:
    edge, fields = _reference(c, a)
    assert _edge(projective_resolution(c)) == _edge_data(*edge), (c.dims, a.dims)
    space = ext1_space(c, a)
    assert _fields(space) == fields, (c.dims, a.dims)
    assert space.dim == ext_dim(1, c, a)


@pytest.fixture
def routes(monkeypatch):
    """Counts the cores of ``ext1_space`` assembled from atom pairs and
    those computed on the whole modules with a sum on either side."""
    calls = {"assembled": 0, "whole sum": 0}
    assembled, whole = homology._assembled_ext1_core, homology._whole_ext1_core

    def counting_assembled(*args):
        calls["assembled"] += 1
        return assembled(*args)

    def counting_whole(c, a):
        if c.summands is not None or a.summands is not None:
            calls["whole sum"] += 1
        return whole(c, a)

    monkeypatch.setattr(homology, "_assembled_ext1_core", counting_assembled)
    monkeypatch.setattr(homology, "_whole_ext1_core", counting_whole)
    return calls


def test_catalog_relative_exactness_pairs_match_the_whole_modules(routes):
    alg = _cyclic3()
    queries = json.loads(CATALOG.read_text(encoding="utf-8"))["queries"]
    pairs = {(q["c"], q["a"]) for q in queries if q["kind"] == "rel_exact"}
    assert len(pairs) == 466
    for ce, ae in sorted(pairs):
        _assert_matches_the_whole_modules(parse_module_expression(alg, ce), parse_module_expression(alg, ae))
    assert routes["assembled"] > 0
    # every atom of cyclic3 is uniserial: one top generator each
    assert routes["whole sum"] == 0


def _random_sums(alg, seed: int, count: int) -> list[Module]:
    """Sums of two to four indecomposables with repeats, in random order,
    a nested sum and a zero summand among them."""
    rng = random.Random(seed)
    atoms = enumerate_indecomposables_nakayama(alg)
    zero = zero_module(alg)
    out = []
    for t in range(count):
        parts = [rng.choice(atoms) for _ in range(rng.randint(2, 4))]
        parts.append(parts[0])
        rng.shuffle(parts)
        if t % 3 == 1:
            parts = [direct_sum(alg, parts[:2]), *parts[2:]]
        if t % 3 == 2:
            parts.insert(rng.randrange(len(parts) + 1), zero)
        out.append(direct_sum(alg, parts))
    return out


def test_seeded_cyclic3_sums_match_the_whole_modules(routes):
    alg = _cyclic3()
    sums = _random_sums(alg, 22, 40)
    atoms = [simple_module(alg, 0), parse_module_expression(alg, "P(2)/rad^2"), proj_module(alg, 2)]
    for c, a in zip(sums, sums[1:] + sums[:1]):
        _assert_matches_the_whole_modules(c, a)
        for atom in atoms:
            _assert_matches_the_whole_modules(c, atom)
            _assert_matches_the_whole_modules(atom, c)
    assert routes["assembled"] == 7 * len(sums)
    assert routes["whole sum"] == 0


@pytest.mark.parametrize("name", sorted(CLASS_ALGEBRAS))
def test_ext1_class_pairs_match_the_whole_modules(name, routes):
    """The pairs of ``test_ext1_classes``; the Kronecker quiver's I(2) and
    the tilted sums have atoms with two top generators, so they take the
    whole-module route."""
    alg = CLASS_ALGEBRAS[name]()
    for ce, ae in _pairs(alg):
        c, a = _module(alg, ce), _module(alg, ae)
        if not (c.is_zero() or a.is_zero()):
            _assert_matches_the_whole_modules(c, a)
    assert routes["assembled"] > 0
    assert routes["whole sum"] > 0


def test_classes_of_sums_realize_and_read_back():
    alg = _cyclic3()
    sums = _random_sums(alg, 23, 12)
    seen = 0
    for c, a in zip(sums, sums[2:]):
        space = ext1_space(c, a)
        for k in range(space.dim):
            e = tuple(int(j == k) for j in range(space.dim))
            assert space.class_of(space.realize(e)) == e
        seen += space.dim
    assert seen > 0


def test_ext1_of_a_sum_does_not_depend_on_what_was_asked_first():
    """``pd_le``, ``syzygy_lift`` and ``F_subgroup_dim`` extend the
    resolution of a sum before ``ext1_space`` reads it; the fields must be
    those of the same sum on an algebra where nothing was asked."""

    def modules(alg):
        return [
            parse_module_expression(alg, e)
            for e in ("P(3)/rad^2+S(1)+S(2)+S(1)", "S(3)+P(2)/rad^2+S(3)", "P(1)+P(2)+P(3)+S(1)+P(3)/rad^2")
        ]

    c, a, m = modules(_cyclic3())
    assert not pd_le(c, 1)
    for phi in hom_basis(c, a) + hom_basis(a, c):
        syzygy_lift(phi)
    subgroups = [F_subgroup_dim(c, a, f) for f in (covariant_functor(m), contravariant_functor(m))]
    first = ext1_space(c, a)
    fresh_c, fresh_a, fresh_m = modules(_cyclic3())
    fresh = ext1_space(fresh_c, fresh_a)
    assert first.dim == fresh.dim > 0
    assert _fields(first) == _fields(fresh)
    assert _edge(projective_resolution(c)) == _edge(projective_resolution(fresh_c))
    functors = (covariant_functor(fresh_m), contravariant_functor(fresh_m))
    assert subgroups == [F_subgroup_dim(fresh_c, fresh_a, f) for f in functors]


def test_ext1_of_a_fresh_sum_of_asked_atoms_computes_no_cover(monkeypatch):
    alg = _cyclic3()
    cs = [parse_module_expression(alg, e) for e in ("P(3)/rad^2", "S(1)", "P(2)/rad^3", "P(1)")]
    as_ = [parse_module_expression(alg, e) for e in ("S(3)", "P(2)/rad^2", "P(1)/rad^4")]
    calls = {"top_generators": 0, "kernel": 0, "presentation": 0}

    def counting(module, name, counts):
        real = getattr(module, name)

        def counted(*args):
            if counts(*args):
                calls[name] += 1
            return real(*args)

        monkeypatch.setattr(module, name, counted)

    counting(rep, "top_generators", lambda x: True)
    for module in (rep, homology):
        counting(module, "kernel", lambda f: True)
        counting(module, "presentation", lambda m: "presentation" not in m._cache)

    def fresh_pair():
        return direct_sum(alg, [cs[1], cs[0], cs[2], cs[1], cs[3]]), direct_sum(alg, [as_[2], as_[0], as_[0], as_[1]])

    dim = ext1_space(*fresh_pair()).dim
    # not vacuous: the first sum resolves its atoms
    assert calls["top_generators"] and calls["kernel"] and calls["presentation"]
    for c, a in itertools.product(cs, as_):
        ext1_space(c, a)
    for key in calls:
        calls[key] = 0
    assert ext1_space(*fresh_pair()).dim == dim > 0
    assert calls == {"top_generators": 0, "kernel": 0, "presentation": 0}

"""The one cache policy (``relrep.cache``) and the memory it keeps flat."""

from __future__ import annotations

import contextlib
import gc
import io
import itertools
import json
import numbers
import sys
import weakref
from types import SimpleNamespace

import pytest

from relrep import endo, exact_linalg, homology, relhom, rep
from relrep.cache import Cached, cached, cached_among, cached_pair, oldest_first, release
from relrep.cli import main
from relrep.endo import (
    _block_radical,
    _chain_tables,
    _reduce_to_basic,
    _top_chain,
    check_maximal_orthogonal,
    end_algebra,
    end_ring,
    gldim_le,
    sc_injective_dim_le,
)
from relrep.homology import dtr, ext1_space, ext_dim, trd
from relrep.path_algebra import AlgebraPresentation, cyclic_quiver
from relrep.relhom import (
    F_resolution,
    contravariant_functor,
    covariant_functor,
    ext_F_dim,
    is_F_exact,
)
from relrep.rep import (
    Module,
    composition_table,
    direct_sum,
    enumerate_indecomposables_nakayama,
    hom_space,
    is_isomorphic,
    parse_module_expression,
    proj_module,
    radical_quotient,
    regular_module,
    simple_module,
)
import sc_reference as ref
from test_block_tables import _fields
from test_ext_catalog import BENCH, _workloads


class _Thing(Cached):
    __slots__ = ("__weakref__",)


@contextlib.contextmanager
def _collector_off():
    """Reference counting alone frees objects inside the block."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


def test_cached_computes_once_and_keeps_false_and_none():
    owner = _Thing()
    calls = []

    def compute(value):
        calls.append(value)
        return value

    for key, value in enumerate((None, False, 0)):
        assert cached(owner, key, compute, value) is value
        assert cached(owner, key, compute, value) is value
    assert calls == [None, False, 0]


def test_serials_grow_across_classes():
    a, b, c = _Thing(), Cached(), _Thing()
    assert a._serial < b._serial < c._serial


def test_cached_pair_lives_on_the_younger_object():
    old, young = _Thing(), _Thing()
    forward = cached_pair(old, young, "k", lambda: "forward")
    backward = cached_pair(young, old, "k", lambda: "backward")
    # the two orders are different results, and both sit on the younger one
    assert (forward, backward) == ("forward", "backward")
    assert cached_pair(old, young, "k", lambda: "again") == "forward"
    assert cached_pair(young, old, "k", lambda: "again") == "backward"
    assert old._cache == {}
    assert len(young._cache) == 2
    assert cached_pair(old, old, "k", lambda: "self") == "self"
    assert len(old._cache) == 1


def test_cached_pair_entry_keeps_neither_object_alive_and_dies_with_the_younger():
    old, young, value = _Thing(), _Thing(), _Thing()
    cached_pair(old, young, "k", lambda: value)
    old_ref, young_ref, value_ref = weakref.ref(old), weakref.ref(young), weakref.ref(value)
    with _collector_off():
        del value
        # the entry on the younger object is keyed by the older one's serial
        # and holds no reference to it: the older object goes at once
        del old
        assert old_ref() is None and value_ref() is not None
        del young
        assert young_ref() is None and value_ref() is None


def test_a_reused_id_finds_no_entry_of_the_dead_object():
    old, young = _Thing(), _Thing()
    assert cached_pair(old, young, "k", lambda: "old") == "old"
    old_id = id(old)
    del old
    kept = []
    for _ in range(10_000):
        new = _Thing()
        if id(new) == old_id:
            break
        kept.append(new)
    else:
        pytest.skip("no new object took the freed id")
    # the entry is keyed by serial, never reused, so it is not the new object's
    assert cached_pair(new, young, "k", lambda: "new") == "new"
    assert cached_pair(young, new, "k", lambda: "reversed") == "reversed"


def test_composition_table_dies_with_its_younger_hom_space():
    algebra = AlgebraPresentation.truncated(cyclic_quiver(3), 5, name="cyclic3")
    p = proj_module(algebra, 0)
    outer = hom_space(p, p)
    fresh = radical_quotient(p, 2)[0]
    inner = hom_space(fresh, p)
    table = composition_table(outer, inner)
    assert len(table) == inner.dim == 1
    # cached: new views of the same two spaces find the same table
    assert composition_table(hom_space(p, p), hom_space(fresh, p)) is table
    fresh_ref = weakref.ref(fresh)
    held = sys.getrefcount(table)
    with _collector_off():
        del inner, fresh
        # the table sat on the core of the younger space, and nowhere else:
        # it went with the fresh module, while the older space stays cached
        assert fresh_ref() is None
        assert sys.getrefcount(table) == held - 1
    assert hom_space(p, p).gens is outer.gens


def test_an_ext_entry_dies_with_its_younger_atom(monkeypatch):
    algebra = AlgebraPresentation.truncated(cyclic_quiver(3), 5, name="cyclic3")
    # radical_quotient builds a new module on each call, where parsed atoms
    # are shared
    old = radical_quotient(proj_module(algebra, 0), 2)[0]
    computed = []
    real = homology._atom_ext_dim

    def counted(i, a, b):
        computed.append(i)
        return real(i, a, b)

    monkeypatch.setattr(homology, "_atom_ext_dim", counted)

    def ext_entries(module):
        return [slot for slot in module._cache if slot[0] == ("ext", 1)]

    with _collector_off():
        young = radical_quotient(proj_module(algebra, 2), 2)[0]
        both = direct_sum(algebra, [young, old])
        assert ext_dim(1, both, old) == ext_dim(1, young, old) + ext_dim(1, old, old) == 1
        assert len(computed) == 2
        # the pair (young, old) sits on the younger atom, (old, old) on old,
        # and the sum holds no entry of its own
        assert len(ext_entries(young)) == 1 and len(ext_entries(old)) == 1
        assert ext_entries(both) == []
        young_ref = weakref.ref(young)
        del both, young
        assert young_ref() is None
        # a fresh copy finds no entry: the old one went with its owner
        again = radical_quotient(proj_module(algebra, 2), 2)[0]
        assert ext_dim(1, again, old) == 1
        assert len(computed) == 3 and len(ext_entries(old)) == 1


# -- parsed atoms are shared per algebra ---------------------------------------------


def test_parsed_atoms_are_shared_per_algebra():
    algebra = AlgebraPresentation.truncated(cyclic_quiver(3), 5, name="cyclic3")
    parse = lambda expr: parse_module_expression(algebra, expr)
    for term in ("P(1)/rad^2", "I(2)/rad^2", "S(3)"):
        assert parse(term) is parse(term)
    for v in range(3):
        assert parse(f"S({v + 1})") is parse(f"P({v + 1})/rad^1") is simple_module(algebra, v)
    # the sweep's witnesses are the atoms that expressions parse to: P(v)
    # itself at its Loewy length 5, P(v)/rad^j below it
    expected = [
        parse(f"P({v + 1})/rad^{j}") if j < 5 else parse(f"P({v + 1})")
        for v in range(3)
        for j in range(1, 6)
    ]
    witnesses = enumerate_indecomposables_nakayama(algebra)
    assert len(witnesses) == len(expected)
    assert all(w is e for w, e in zip(witnesses, expected))


def test_parsed_sums_are_fresh():
    algebra = AlgebraPresentation.truncated(cyclic_quiver(3), 5, name="cyclic3")
    first = parse_module_expression(algebra, "P(1)+S(2)")
    second = parse_module_expression(algebra, "P(1)+S(2)")
    assert first is not second
    assert all(a is b for a, b in zip(first.summands, second.summands))


def test_radical_powers_past_the_bound_share_one_entry():
    algebra = AlgebraPresentation.truncated(cyclic_quiver(3), 5, name="cyclic3")
    bound = algebra.nilpotency_bound
    p1 = proj_module(algebra, 0)
    for k in range(1, bound + 1001):
        parse_module_expression(algebra, f"P(1)/rad^{k}")
    assert len(p1._cache["radical quotient"]) <= bound
    assert parse_module_expression(algebra, "P(1)/rad^100000") is parse_module_expression(
        algebra, f"P(1)/rad^{bound}"
    )


def test_a_dropped_end_ring_is_freed_with_its_chain_tables():
    algebra = AlgebraPresentation.truncated(cyclic_quiver(3), 5, name="cyclic3")
    with _collector_off():
        # an End(M), held by its atom blocks
        m = parse_module_expression(algebra, "P(1)+P(2)+P(3)+S(1)+P(3)/rad^2")
        g = end_ring(m)
        gldim_le(g, 2)
        refs = [weakref.ref(o) for o in (g, _chain_tables(g), _top_chain(g, 0))]
        m_ref = weakref.ref(m)
        del g
        assert all(r() is not None for r in refs)
        del m
        assert m_ref() is None
        assert [r() for r in refs] == [None] * len(refs)
        # one End(M) that is its own basic algebra, one with a repeated class
        for expr in ("P(1)+P(2)+P(3)+S(1)+P(3)/rad^2", "P(1)+P(1)+S(1)+P(2)/rad^2"):
            m = parse_module_expression(algebra, expr)
            g = end_ring(m)
            basic = _reduce_to_basic(g)[0]
            gldim_le(g, 2)
            sc_injective_dim_le(g, ref.regular_sc_module(g), 0)
            held = [g, basic, _chain_tables(basic), _top_chain(basic, 0)]
            refs = [weakref.ref(o) for o in held]
            m_ref = weakref.ref(m)
            del g, basic, held
            # m holds End(m), which holds its basic algebra and the tables
            # and chains cached on them
            assert all(r() is not None for r in refs)
            del m
            assert m_ref() is None
            assert [r() for r in refs] == [None] * len(refs)


def _triple_records(g) -> list:
    return [triple for by_middle in g._blocks.triples for by_target in by_middle for triple in by_target if triple]


def test_a_second_end_ring_over_the_same_atoms_reuses_the_triple_records(monkeypatch):
    algebra = AlgebraPresentation.truncated(cyclic_quiver(3), 5, name="cyclic3")
    atoms = parse_module_expression(algebra, "P(1)+P(2)+P(3)+S(1)+P(3)/rad^2+P(2)/rad^3").summands
    first = end_ring(direct_sum(algebra, atoms))
    generators, tables = _block_radical(first), _chain_tables(first)
    assert generators and any(triple.square for triple in _triple_records(first))
    computed = []

    def counting(name, real):
        return lambda *args: computed.append(name) or real(*args)

    monkeypatch.setattr(rep, "_composition_table", counting("composition", rep._composition_table))
    monkeypatch.setattr(endo, "_sparse_columns", counting("columns", endo._sparse_columns))
    monkeypatch.setattr(endo._Triple, "fill_square", counting("rad²", endo._Triple.fill_square))
    second = end_ring(direct_sum(algebra, atoms))
    assert second is not first
    assert _block_radical(second) == generators
    assert _fields(_chain_tables(second)) == _fields(tables)
    assert computed == []
    # one record per triple, one radical block per pair, shared by both
    assert all(a is b for a, b in zip(_triple_records(second), _triple_records(first)))
    assert all(a is b for a, b in zip(_chain_tables(second).rad_spans[0], tables.rad_spans[0]))


def _leaves(value):
    if isinstance(value, (tuple, list)):
        for item in value:
            yield from _leaves(item)
    else:
        yield value


def test_triple_records_hold_numbers_and_die_with_their_atoms():
    algebra = AlgebraPresentation.truncated(cyclic_quiver(3), 5, name="cyclic3")
    with _collector_off():
        # fresh atoms: every hom core, and so every record, lives on one of them
        atoms = [radical_quotient(proj_module(algebra, v), k)[0] for v, k in ((0, 4), (1, 2), (2, 3), (0, 1))]
        m = direct_sum(algebra, atoms)
        g = end_ring(m)
        assert ref.on_blocks(g) and [gldim_le(g, n) for n in range(4)]
        records = _triple_records(g)
        # the radical filled the rad² rows of the triples it read
        assert records and any(triple.square for triple in records)
        for triple in records:
            values = [getattr(triple, slot) or [] for slot in endo._Triple.__slots__ if slot != "__weakref__"]
            assert all(isinstance(x, numbers.Rational) for x in _leaves(values))
        refs = [weakref.ref(triple) for triple in records]
        del records, triple, g, m
        assert all(r() is not None for r in refs)
        del atoms
        assert [r() for r in refs] == [None] * len(refs)


# -- one relative functor per (module, variance), held weakly by the module ---------


def test_cached_among_lives_on_the_youngest_and_cached_pair_is_its_two_object_case():
    old, middle, young = _Thing(), _Thing(), _Thing()
    assert cached_among((middle, young, old), "k", lambda: "mo") == "mo"
    # the order is part of the key, and the entry sits on the youngest
    assert cached_among((old, young, middle), "k", lambda: "om") == "om"
    assert cached_among((middle, young, old), "k", lambda: "again") == "mo"
    assert old._cache == {} and middle._cache == {} and len(young._cache) == 2
    # a pair lookup reads and writes the two-object entry
    assert cached_pair(old, middle, "k", lambda: "pair") == "pair"
    assert cached_among((old, middle), "k", lambda: "again") == "pair"
    assert cached_among((middle, old), "k", lambda: "other") == "other"
    assert len(middle._cache) == 2
    # a set takes part in a key in one order, whatever order it comes in
    assert oldest_first([young, old, middle, old]) == (old, middle, young)


def test_a_held_functor_is_shared():
    algebra = AlgebraPresentation.truncated(cyclic_quiver(3), 5, name="cyclic3")
    m = parse_module_expression(algebra, "P(2)/rad^2+S(3)")
    x = parse_module_expression(algebra, "P(1)/rad^3+S(2)")
    cov, con = covariant_functor(m), contravariant_functor(m)
    assert covariant_functor(m) is cov and contravariant_functor(m) is con
    assert cov is not con
    assert (cov.variance, con.variance) == ("covariant", "contravariant")
    # the resolution cached on the shared functor is found again
    res = F_resolution(x, cov)
    res.ensure_terms(2)
    assert F_resolution(x, covariant_functor(m)).terms is res.terms


def test_a_dropped_functor_is_freed_with_its_resolutions():
    algebra = AlgebraPresentation.truncated(cyclic_quiver(3), 5, name="cyclic3")
    x = parse_module_expression(algebra, "P(1)/rad^3+S(2)")
    with _collector_off():
        m = parse_module_expression(algebra, "P(2)/rad^2+S(3)")
        functor = covariant_functor(m)
        res = F_resolution(x, functor)
        res.ensure_terms(3)
        refs = [weakref.ref(o) for o in (functor, functor.projectives_module(), res.terms[1], res.syzygy(2))]
        m_ref = weakref.ref(m)
        del res
        assert all(r() is not None for r in refs)
        # the module holds its functor weakly: dropping the functor frees it,
        # its relative projectives and the resolution cached on it
        del functor
        assert [r() for r in refs] == [None] * len(refs)
        # the functor held the module, never the other way round
        assert m_ref() is not None
        del m
        assert m_ref() is None


# -- memory stays flat across long runs of fresh-module queries ---------------------

_PAIRS = [
    ("S(1)", "P(2)/rad^2"),
    ("P(1)/rad^3", "S(3)"),
    ("P(2)/rad^2", "P(3)/rad^4+S(2)"),
]


def _live_modules() -> int:
    gc.collect()
    return sum(1 for o in gc.get_objects() if isinstance(o, Module))


def _query_round(algebra) -> None:
    """Fresh modules against the cached projectives, over every layer."""
    projectives = [proj_module(algebra, v) for v in range(algebra.quiver.vertex_count)]
    for x_expr, y_expr in _PAIRS:
        x = parse_module_expression(algebra, x_expr)
        y = parse_module_expression(algebra, y_expr)
        ext_dim(1, x, y)
        ext_dim(1, x, y, via="injective")
        space = ext1_space(x, y)
        space.realize([1] * space.dim)
        ext_F_dim(1, x, y, covariant_functor(parse_module_expression(algebra, y_expr)))
        ext_F_dim(1, y, x, contravariant_functor(parse_module_expression(algebra, x_expr)))
        # held functors of fresh modules, asked again through new lookups
        held = covariant_functor(y), contravariant_functor(x)
        sequence = space.realize([1] * space.dim)
        for functor in held:
            ext_F_dim(2, x, y, functor)
            ext_F_dim(2, x, y, functor, via="injective")
            is_F_exact(sequence, functor)
        assert covariant_functor(y) is held[0] and contravariant_functor(x) is held[1]
        dtr(x)
        trd(y)
        assert is_isomorphic(x, parse_module_expression(algebra, x_expr))
        composition_table(hom_space(y, x), hom_space(x, y))
        end_algebra(direct_sum(algebra, [x, y]))
        for p in projectives:
            for z in (x, y):
                hom_space(p, z)
                hom_space(z, p)


def _catalog_round(workloads, algebra, queries) -> None:
    """Every query of the Ext catalog, on the benchmark's request route."""
    rr = SimpleNamespace(rep=rep, homology=homology, relhom=relhom, exact_linalg=exact_linalg)
    for q in queries:
        assert workloads.run_query(rr, algebra, q) == q["answer"]


def _cache_entries(modules) -> int:
    """The entries cached on the modules, a memo table's rows included."""
    return sum(1 + (len(v) if type(v) is dict else 0) for m in modules for v in m._cache.values())


def _sweep_round(algebra, lam, nonprojective, witnesses) -> None:
    """Fresh candidates in both modes; enumeration mode reads Ext and
    multiplicities per pair of the long-lived atoms and witnesses."""
    for r in range(len(nonprojective) + 1):
        for combo in itertools.combinations(nonprojective, r):
            check_maximal_orthogonal(direct_sum(algebra, [lam, *combo]), 1, mode="corollary")
            check_maximal_orthogonal(direct_sum(algebra, [lam, *combo]), 1, mode="enumeration", witnesses=witnesses)


def test_live_modules_stay_flat_across_rounds():
    cyclic3 = AlgebraPresentation.truncated(cyclic_quiver(3), 5, name="cyclic3")
    cyc2 = AlgebraPresentation.truncated(cyclic_quiver(2), 3, name="cyc2-trunc3")
    lam = regular_module(cyc2)
    witnesses = enumerate_indecomposables_nakayama(cyc2)
    nonprojective = [x for x in witnesses if x.total_dim < 3]

    def both_rounds():
        _query_round(cyclic3)
        _sweep_round(cyc2, lam, nonprojective, witnesses)

    both_rounds()
    after_first = _live_modules()
    both_rounds()
    both_rounds()
    assert _live_modules() == after_first


def test_fresh_module_rounds_leave_no_cyclic_garbage():
    cyclic3 = AlgebraPresentation.truncated(cyclic_quiver(3), 5, name="cyclic3")
    cyc2 = AlgebraPresentation.truncated(cyclic_quiver(2), 3, name="cyc2-trunc3")
    lam = regular_module(cyc2)
    witnesses = enumerate_indecomposables_nakayama(cyc2)
    nonprojective = [x for x in witnesses if x.total_dim < 3]
    _query_round(cyclic3)
    _sweep_round(cyc2, lam, nonprojective, witnesses)
    gc.collect()
    flags = gc.get_debug()
    seen = len(gc.garbage)
    try:
        with _collector_off():
            # every fresh module and what is cached on it is freed by
            # reference counting when the round returns
            _query_round(cyclic3)
            _sweep_round(cyc2, lam, nonprojective, witnesses)
            gc.set_debug(flags | gc.DEBUG_SAVEALL)
            gc.collect()
            found = gc.garbage[seen:]
            leaked = sorted({type(o).__qualname__ for o in found if type(o).__module__.startswith("relrep")})
            del gc.garbage[seen:], found
    finally:
        gc.set_debug(flags)
    assert leaked == []


def test_a_cli_subcommand_leaves_no_cyclic_garbage():
    # main drops the memo of the algebra it loaded and of its opposite, so
    # the algebra <-> projectives <-> opposite cycle does not outlive it
    argv = ["verify-theorem", "builtin:cyclic3", "P(1)+P(2)+P(3)+S(1)+P(3)/rad^2", "P(1)+P(2)+P(3)+S(1)+P(1)/rad^2"]
    with contextlib.redirect_stdout(io.StringIO()):
        assert main([*argv, "--l", "2"]) == 0
    gc.collect()
    flags = gc.get_debug()
    seen = len(gc.garbage)
    try:
        with _collector_off(), contextlib.redirect_stdout(io.StringIO()):
            assert main([*argv, "--l", "2"]) == 0
            gc.set_debug(flags | gc.DEBUG_SAVEALL)
            gc.collect()
            found = gc.garbage[seen:]
            leaked = sorted({type(o).__qualname__ for o in found if type(o).__module__.startswith("relrep")})
            del gc.garbage[seen:], found
    finally:
        gc.set_debug(flags)
    assert leaked == []


def test_release_drops_both_memos_of_an_involution():
    algebra = AlgebraPresentation.truncated(cyclic_quiver(3), 5, name="cyclic3")
    p1, op = proj_module(algebra, 0), algebra.opposite()
    refs = [weakref.ref(o) for o in (p1, op)]
    del p1, op
    with _collector_off():
        release(algebra, "opposite")
        assert [r() for r in refs] == [None, None]
    assert proj_module(algebra, 0) is proj_module(algebra, 0)


def test_interned_atoms_stay_flat_across_catalog_rounds():
    workloads = _workloads()
    queries = json.loads((BENCH / "data" / "ext_catalog.json").read_text(encoding="utf-8"))["queries"]
    algebra = AlgebraPresentation.truncated(cyclic_quiver(3), 5, name="cyclic3")
    expressions = {q[k] for q in queries for k in ("x", "y", "a", "c", "m", "t") if k in q}
    terms = sorted({t.strip() for expr in expressions for t in expr.split("+")})
    gc.collect()
    with _collector_off():
        _catalog_round(workloads, algebra, queries)
        atoms = [parse_module_expression(algebra, t) for t in terms]
        after_first = (sum(1 for o in gc.get_objects() if isinstance(o, Module)), _cache_entries(atoms))
        for _ in range(2):
            _catalog_round(workloads, algebra, queries)
            now = (sum(1 for o in gc.get_objects() if isinstance(o, Module)), _cache_entries(atoms))
            assert now == after_first

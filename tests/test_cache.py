"""The one cache policy (``relrep.cache``) and the memory it keeps flat."""

from __future__ import annotations

import gc
import itertools
import weakref

from relrep.cache import Cached, cached, cached_pair
from relrep.endo import check_maximal_orthogonal
from relrep.homology import dtr, ext1_space, ext_dim
from relrep.path_algebra import AlgebraPresentation, cyclic_quiver
from relrep.relhom import contravariant_functor, covariant_functor, ext_F_dim
from relrep.rep import (
    Module,
    composition_table,
    direct_sum,
    enumerate_indecomposables_nakayama,
    hom_space,
    parse_module_expression,
    proj_module,
    radical_quotient,
    regular_module,
)


class _Thing(Cached):
    __slots__ = ("__weakref__",)


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


def test_cached_pair_entry_keeps_the_older_object_alive_and_dies_with_the_younger():
    old, young = _Thing(), _Thing()
    cached_pair(old, young, "k", lambda: 1)
    old_ref, young_ref = weakref.ref(old), weakref.ref(young)
    del old
    gc.collect()
    # the entry on the younger object holds the older one, so its id stays unique
    assert old_ref() is not None
    del young
    gc.collect()
    assert young_ref() is None and old_ref() is None


def test_composition_table_dies_with_its_younger_hom_space():
    algebra = AlgebraPresentation.truncated(cyclic_quiver(3), 5, name="cyclic3")
    p = proj_module(algebra, 0)
    outer = hom_space(p, p)
    fresh = radical_quotient(p, 2)[0]
    inner = hom_space(fresh, p)
    table = composition_table(outer, inner)
    assert len(table) == inner.dim == 1
    # the table sits on the younger space, next to a reference to the older
    assert not any(key[0] == "composition" for key in outer._cache)
    assert [key[0] for key in inner._cache] == ["composition"]
    old_ref, young_ref = weakref.ref(outer), weakref.ref(inner)
    del inner, table, fresh
    gc.collect()
    assert young_ref() is None and old_ref() is outer


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
        space = ext1_space(x, y)
        space.realize([1] * space.dim)
        ext_F_dim(1, x, y, covariant_functor(parse_module_expression(algebra, y_expr)))
        ext_F_dim(1, y, x, contravariant_functor(parse_module_expression(algebra, x_expr)))
        dtr(x)
        for p in projectives:
            for z in (x, y):
                hom_space(p, z)
                hom_space(z, p)


def _sweep_round(algebra, lam, nonprojective) -> None:
    for r in range(len(nonprojective) + 1):
        for combo in itertools.combinations(nonprojective, r):
            check_maximal_orthogonal(direct_sum(algebra, [lam, *combo]), 1, mode="corollary")


def test_live_modules_stay_flat_across_rounds():
    cyclic3 = AlgebraPresentation.truncated(cyclic_quiver(3), 5, name="cyclic3")
    cyc2 = AlgebraPresentation.truncated(cyclic_quiver(2), 3, name="cyc2-trunc3")
    lam = regular_module(cyc2)
    nonprojective = [x for x in enumerate_indecomposables_nakayama(cyc2) if x.total_dim < 3]

    def both_rounds():
        _query_round(cyclic3)
        _sweep_round(cyc2, lam, nonprojective)

    both_rounds()
    after_first = _live_modules()
    both_rounds()
    both_rounds()
    assert _live_modules() == after_first

"""The one cache policy: a memoized result lives on the objects it describes,
and never points back at them.

A result about one object is stored in that object's ``_cache`` dict.  A
result about several objects (``cached_among``; ``cached_pair`` is its
two-object case) is stored on the youngest one (largest creation serial),
keyed by the serials of all of them, in order.  Serials come from one counter
and are never reused, unlike ``id``, so the entry needs no reference to the
other objects; and the objects older than an owner are fixed when it is
created, so the entries on it stay bounded.  A lookup needs every object in
hand, so an entry is reachable only while all of them live, and it dies with
the youngest one.  A set of objects takes part in a key as its members
oldest first (``oldest_first``).

No memoized value holds a strong reference to its owner or to the other
objects of its key.  Results that must hand back the objects they describe (hom spaces,
resolutions, ``Ext¹`` spaces) are cached as module-free cores and wrapped in
a fresh view on each lookup.  An involution (the dual of a module) is held
strongly by the object it was made from and holds that object weakly
(``involution``).  One more form follows from these.  A value the owner
holds only weakly (``weakly_cached``, the relative functors of a module) may
point at its owner: the owner's entry keeps it alive for no one, so callers
get the same value while they hold it.  So a fresh module is never part of
a reference cycle: reference counting frees it, with everything cached on
it, as soon as the last caller drops it.  The one cycle left is per algebra:
an algebra presentation and its memoized projectives and opposite point at
each other, and so do the radical quotients interned on those projectives
(algebra -> P(v) -> P(v)/rad^k -> algebra).  ``release`` breaks it when the
algebra's work is done (the CLI does so after each subcommand).  No other
module reads or writes ``_cache``.
"""

from __future__ import annotations

import functools
import itertools
import weakref
from typing import Iterable, Sequence

_MISSING = object()
_SERIALS = itertools.count()


class Cached:
    """Base of the classes whose instances carry memoized results."""

    __slots__ = ("_cache", "_serial")

    def __init__(self) -> None:
        self._cache: dict = {}
        self._serial = next(_SERIALS)


def cached(owner: Cached, key, compute, *args):
    """``owner._cache[key]``, computed once as ``compute(*args)`` (``None`` included)."""
    cache = owner._cache
    value = cache.get(key, _MISSING)
    if value is _MISSING:
        value = cache[key] = compute(*args)
    return value


def memoized(name: str):
    """Decorator for a function whose first argument owns its result.

    ``f(owner)`` is cached as ``owner._cache[name]`` and ``f(owner, arg)`` as
    ``owner._cache[name][arg]``.  A hit costs the dict lookups alone, in the
    decorated function's own frame, as cheap as the inline lookup on hot
    paths such as ``Module.action``.
    """

    def decorate(compute):
        @functools.wraps(compute)
        def lookup(owner, arg=_MISSING):
            if arg is _MISSING:
                return cached(owner, name, compute, owner)
            table = owner._cache.get(name)
            if table is None:
                table = owner._cache[name] = {}
            value = table.get(arg, _MISSING)
            if value is _MISSING:
                value = table[arg] = compute(owner, arg)
            return value

        return lookup

    return decorate


def cached_among(objects: Sequence[Cached], key, compute, *args):
    """The result ``compute(*args)`` about the ordered tuple ``objects``,
    computed once and stored on the youngest of them under all their serials."""
    serials = [o._serial for o in objects]
    owner = objects[serials.index(max(serials))]
    slot = (key, *serials)
    cache = owner._cache
    value = cache.get(slot, _MISSING)
    if value is _MISSING:
        value = cache[slot] = compute(*args)
    return value


def cached_pair(a: Cached, b: Cached, key, compute, *args):
    """``cached_among((a, b), key, compute, *args)``, the same entry, looked up
    inline: the result about the ordered pair (a, b), stored on the younger
    of the two.  Hom spaces and multiplicities take this path on every read."""
    sa, sb = a._serial, b._serial
    cache = (a if sa >= sb else b)._cache
    slot = (key, sa, sb)
    value = cache.get(slot, _MISSING)
    if value is _MISSING:
        value = cache[slot] = compute(*args)
    return value


def oldest_first(objects: Iterable[Cached]) -> tuple:
    """The distinct objects among ``objects``, oldest first: the canonical
    order in which a set of objects takes part in a ``cached_among`` key."""
    return tuple(sorted({o._serial: o for o in objects}.values(), key=_serial))


def _serial(o: Cached) -> int:
    return o._serial


def involution(owner: Cached, key, compute):
    """``compute(owner)`` for an involution: the image's own ``key`` result is
    ``owner`` again.

    The owner holds its image strongly and the image holds the owner weakly,
    so the pair forms no reference cycle.  When the owner of an image has
    died, asking the image yields a new object, held strongly from then on.
    """
    link = owner._cache.get(key)
    if link is not None:
        if type(link) is not weakref.ref:
            return link
        origin = link()
        if origin is not None:
            return origin
    image = owner._cache[key] = compute(owner)
    image._cache[key] = weakref.ref(owner)
    return image


def weakly_cached(owner: Cached, key, compute, *args):
    """``compute(*args)``, the same object for as long as someone holds it.

    The owner keeps the value through a weak reference only, so the value may
    point at its owner: no cycle forms, and the value dies as soon as its
    last holder drops it.  The next call then computes a new one.
    """
    link = owner._cache.get(key)
    value = link() if link is not None else None
    if value is None:
        value = compute(*args)
        owner._cache[key] = weakref.ref(value)
    return value


def release(owner: Cached, link) -> None:
    """Drop every result memoized on ``owner`` and on the image it holds
    under ``link`` (its opposite, say), so that reference counting frees
    what only those memos held, cycles through them included."""
    image = owner._cache.get(link)
    if type(image) is weakref.ref:
        image = image()
    owner._cache.clear()
    if image is not None:
        image._cache.clear()

"""The one cache policy: a memoized result lives on the objects it describes.

A result about one object is stored in that object's ``_cache`` dict.  A
result about two objects is stored on the younger one (larger creation
serial), keyed by the other's ``id`` and holding the other alive, so the
``id`` cannot be reused while the entry lives.  A pair lookup needs both
objects in hand, so the entry is reachable exactly while both live, and it
dies with the younger one: long sweeps over fresh modules stay flat.  No
other module reads or writes ``_cache``.
"""

from __future__ import annotations

import functools
import itertools

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


def cached_pair(a: Cached, b: Cached, key, compute, *args):
    """The result ``compute(*args)`` about the ordered pair (a, b), computed once
    and stored on the younger of the two next to a reference to the other."""
    if a._serial >= b._serial:
        owner, other, side = a, b, 0
    else:
        owner, other, side = b, a, 1
    slot = (key, side, id(other))
    cache = owner._cache
    entry = cache.get(slot)
    if entry is None:
        entry = cache[slot] = (compute(*args), other)
    return entry[0]

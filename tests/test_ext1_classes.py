"""Ext^1 class coordinates pinned to recorded cocycles and middle terms.

A class coordinate of ``Ext1Space(c, a)`` is read at the free unknowns of
the commutation system on the entries of maps K -> a (K the first syzygy of
c), ordered atom of a by atom.  ``data/ext1_classes.json`` records, for every
basis class e_k, the cocycle ``representative(e_k)`` entry by entry and the
middle term of ``realize(e_k)`` matrix by matrix, as computed when Hom(K, a)
was still the kernel of that commutation system.  The pairs reach past the
cyclic targets: a runs over injectives, simples and mixed sums on the
commuting square, A3 with one zero relation, the Kronecker quiver and A4/rad^2.

Regenerate (only when class coordinates or middle terms are meant to change) with
``PYTHONPATH=src:tests python3 tests/test_ext1_classes.py``.
"""

import json
from pathlib import Path

import pytest

from relrep.homology import ext1_space
from relrep.rep import parse_module_expression
from test_homology import _a3_zero_relation, _a4_rad2, _commuting_square, _kronecker
from test_syzygy_steps import _tilted

DATA = Path(__file__).parent / "data" / "ext1_classes.json"
ALGEBRAS = {make().name: make for make in (_commuting_square, _a3_zero_relation, _kronecker, _a4_rad2)}


def _pairs(alg) -> list[tuple[str, str]]:
    n = alg.quiver.vertex_count
    cs = [f"{kind}({v})" for kind in "SI" for v in range(1, n + 1)]
    cs += [f"P({v})/rad^2" for v in range(1, n + 1)] + [f"I({v})/rad^1" for v in range(1, n + 1)]
    cs += [f"S(1)+P({n})/rad^2", f"S({n})+I(1)/rad^1"]
    targets = [f"{kind}({v})" for kind in "IS" for v in range(1, n + 1)]
    targets += [f"S(1)+I({n})", f"I(1)+I({n})", f"P(1)/rad^2+S({n})+I(2)", f"S({n})+S({n})"]
    # atoms at later vertices first: class coordinates run atom by atom
    targets += [f"S({j})+S({i})" for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    targets += [f"S({n})+I(1)+S(1)", f"I(1)/rad^1+S({n})"]
    # modules whose radicals are not coordinate subspaces (see _tilted)
    tilted = [f"T{k}" for k in range(len(_tilted(alg)))]
    return [(c, a) for c in cs + tilted for a in targets + tilted]


def _module(alg, expr: str):
    """The module named by ``expr``: ``Tk`` is the k-th of ``_tilted(alg)``."""
    if expr.startswith("T"):
        return _tilted(alg)[int(expr[1:])]
    return parse_module_expression(alg, expr)


def _classes(space) -> tuple[list, list]:
    """The cocycle entries and the middle term of each basis class, written
    out (empty when Ext^1(c, a) = 0): entries space-separated, matrix rows
    separated by ``;``."""
    cocycles, middles = [], []
    for k in range(space.dim):
        e = [int(j == k) for j in range(space.dim)]
        cocycles.append(" ".join(map(str, space.representative(e).flat())))
        mid = space.realize(e).middle
        maps = [";".join(" ".join(map(str, row)) for row in m._data) for m in mid.arrow_maps]
        middles.append({"dims": list(mid.dims), "maps": maps})
    return cocycles, middles


def _record() -> list[dict]:
    out = []
    for name, make in ALGEBRAS.items():
        alg = make()
        for ce, ae in _pairs(alg):
            c, a = _module(alg, ce), _module(alg, ae)
            if c.is_zero() or a.is_zero():
                continue
            space = ext1_space(c, a)
            cocycles, middles = _classes(space)
            out.append({"algebra": name, "c": ce, "a": ae, "dim": space.dim, "cocycles": cocycles, "middles": middles})
    return out


def _records() -> list[dict]:
    return json.loads(DATA.read_text())


def test_the_record_covers_injective_and_mixed_sum_targets():
    records = _records()
    assert {r["algebra"] for r in records} == set(ALGEBRAS)
    assert sum(r["dim"] for r in records) == 786
    assert sum(r["dim"] > 1 for r in records) == 148
    # Ext^1(c, I) = 0: injective targets pin the reduction by coboundaries
    injective = [r for r in records if r["a"].startswith("I(") and "+" not in r["a"]]
    assert injective and not any(r["dim"] for r in injective)
    assert sum(r["dim"] for r in records if "+" in r["a"] and "I(" in r["a"]) > 0


@pytest.mark.parametrize("name", sorted(ALGEBRAS))
def test_basis_classes_realize_the_recorded_extensions(name):
    alg = ALGEBRAS[name]()
    for rec in (r for r in _records() if r["algebra"] == name):
        c, a = _module(alg, rec["c"]), _module(alg, rec["a"])
        space = ext1_space(c, a)
        assert space.dim == rec["dim"], (rec["c"], rec["a"])
        assert _classes(space) == (rec["cocycles"], rec["middles"]), (rec["c"], rec["a"])
        for k in range(space.dim):
            e = tuple(int(j == k) for j in range(space.dim))
            assert space.class_of(space.realize(e)) == e


if __name__ == "__main__":
    DATA.write_text(json.dumps(_record(), separators=(",", ":")))

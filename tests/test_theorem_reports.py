"""Four-condition theorem reports pinned on the benchmark's cases and more.

``data/theorem_reports.json`` records the full ``TheoremReport`` at l = 2 of
these pairs (m1, m2): the hypotheses as ``(name, passed, detail)``, the four
flags, and ``details["a"]`` to ``details["d"]``.

* the three ``theorem`` cases of the benchmark, and M1 against itself;
* both mutated pairs, M1 with M2 + P(1)/rad^4 and with M1 + P(1)/rad^4, in
  both orders, where all four conditions fail;
* the pairs of ``test_repeated_classes.py``: the condition (d) pairs, and
  the pairs of its two-sided Hom table, most of which fail a hypothesis.

On the pairs of that table, conditions (b) and (c) are also recorded off the
hypothesis gate, at l = 1 and l = 2: there each of their witnesses (relative
syzygy or cosyzygy in add, exact steps, dimension bound) fails somewhere.
Every later route must give these values unchanged, detail strings included.

Regenerate (only when an answer is meant to change) with
``PYTHONPATH=src:tests python3 tests/test_theorem_reports.py``.
"""

import json
from pathlib import Path

import pytest

from test_repeated_classes import SIDES, _algebra, _module
from relrep.endo import cotilting_style_condition, dual_cotilting_style_condition, verify_theorem
from relrep.path_algebra import AlgebraPresentation, cyclic_quiver
from relrep.rep import parse_module_expression

DATA = Path(__file__).parent / "data" / "theorem_reports.json"

M1 = "P(1)+P(2)+P(3)+S(1)+P(3)/rad^2"
M2 = "P(1)+P(2)+P(3)+S(1)+P(1)/rad^2"
C1 = "P(1)+P(2)+S(1)+P(1)/rad^3"
C2 = "P(1)+P(2)+S(2)+P(2)/rad^3"
RAD4 = "+P(1)/rad^4"

# (quiver vertices, truncation, m1, m2)
PAIRS = [
    (3, 5, M1, M2),
    (2, 4, C1, C2),
    (2, 4, C2, C1),
    (3, 5, M1, M1),
    (3, 5, M1, M2 + RAD4),
    (3, 5, M2 + RAD4, M1),
    (3, 5, M1, M1 + RAD4),
    (3, 5, M1 + RAD4, M1),
    (3, 5, M1 + "+S(1)", M2),
    (3, 5, M1, M2 + "+P(1)/rad^2"),
    (3, 5, M1 + "+P(3)/rad^2", M2 + "+S(1)+P(1)"),
]


def _plain(value):
    """``value`` as it reads back from JSON (tuples become lists)."""
    return json.loads(json.dumps(value))


def _theorem(m1, m2) -> dict:
    report = verify_theorem(m1, m2, 2)
    return _plain(
        {
            "hypotheses": [[c.name, c.passed, c.detail] for c in report.hypotheses],
            "flags": list(report.flags),
            "details": report.details,
        }
    )


def _pair(vertices: int, bound: int, e1: str, e2: str) -> dict:
    alg = AlgebraPresentation.truncated(cyclic_quiver(vertices), bound, name=f"cyc{vertices}-trunc{bound}")
    return _theorem(parse_module_expression(alg, e1), parse_module_expression(alg, e2))


def _side_pair(name: str, extra1: str, extra2: str) -> dict:
    alg = _algebra(name)
    m1, m2 = _module(alg, extra1), _module(alg, extra2)
    record = _theorem(m1, m2)
    record["off_gate"] = _plain(
        {
            str(l): {"b": cotilting_style_condition(m1, m2, l), "c": dual_cotilting_style_condition(m1, m2, l)}
            for l in (1, 2)
        }
    )
    return record


def _record() -> dict:
    return {
        "pairs": [{"pair": list(p), **_pair(*p)} for p in PAIRS],
        "sides": [{"pair": [name, e1, e2], **_side_pair(name, e1, e2)} for name, e1, e2, _, _ in SIDES],
    }


@pytest.fixture(scope="module")
def records() -> dict:
    return json.loads(DATA.read_text())


def test_the_record_covers_every_pair(records):
    assert [tuple(r["pair"]) for r in records["pairs"]] == PAIRS
    assert [tuple(r["pair"]) for r in records["sides"]] == [s[:3] for s in SIDES]
    flags = [r["flags"] for r in records["pairs"]]
    assert flags.count([True] * 4) == 7 and flags.count([False] * 4) == 4
    # not vacuous off the gate: each witness of (b) and (c) fails somewhere
    off = [r["off_gate"][l][k][1] for r in records["sides"] for l in ("1", "2") for k in "bc"]
    for key in ("syzygy_in_add", "cosyzygy_in_add", "injective_dimension_ok", "projective_dimension_ok"):
        assert any(d.get(key) is False for d in off)
    assert any(False in d["steps_cross_exact"] for d in off)


@pytest.mark.parametrize("index", range(len(PAIRS)))
def test_theorem_report(records, index):
    assert _pair(*PAIRS[index]) == {k: v for k, v in records["pairs"][index].items() if k != "pair"}


@pytest.mark.parametrize("index", range(len(SIDES)))
def test_theorem_report_and_conditions_off_the_gate(records, index):
    name, e1, e2, _, _ = SIDES[index]
    assert _side_pair(name, e1, e2) == {k: v for k, v in records["sides"][index].items() if k != "pair"}


if __name__ == "__main__":
    record = _record()
    DATA.write_text(
        "{\n"
        + ",\n".join(
            f'"{part}": [\n' + ",\n".join(json.dumps(r, ensure_ascii=False) for r in rows) + "\n]"
            for part, rows in record.items()
        )
        + "\n}\n",
        encoding="utf-8",
    )

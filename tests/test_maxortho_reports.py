"""Maximal orthogonality reports pinned on the benchmark's sweep candidates.

The candidates are Lambda plus every subset of the non-projective
indecomposables, over cyc2-trunc2, cyc2-trunc3, cyc2-trunc4, cyc3-trunc2 and
cyc3-trunc3: 156 modules.  ``data/maxortho_reports.json`` records, for each
candidate at level 1 in both modes, the verdict and every clause as
``(name, passed, detail)``, as computed when every clause of every candidate
was built at call time.  The enumeration runs over the algebra's
indecomposables, passed as the sweep passes them.  Every later route must
give these values unchanged, detail strings included.

The verdict is decided when the check runs and the clauses on first read:
the work guards at the end check that a verdict alone stops short of
End(M) on a candidate that fails selforthogonality, and that reading the
clauses then builds it.  Clauses that disagree with the verdict are a
program fault.

Regenerate (only when a verdict or a clause is meant to change) with
``PYTHONPATH=src:tests python3 tests/test_maxortho_reports.py``.
"""

import itertools
import json
from pathlib import Path

import pytest

from relrep import endo
from relrep.endo import ClauseReport, MaxOrthogonalReport, check_maximal_orthogonal
from relrep.path_algebra import AlgebraError, AlgebraPresentation, InternalError, cyclic_quiver
from relrep.rep import direct_sum, enumerate_indecomposables_nakayama, regular_module

DATA = Path(__file__).parent / "data" / "maxortho_reports.json"
SWEEP = ((2, 2), (2, 3), (2, 4), (3, 2), (3, 3))
MODES = ("corollary", "enumeration")


def _algebra(vertices: int, bound: int) -> AlgebraPresentation:
    return AlgebraPresentation.truncated(cyclic_quiver(vertices), bound, name=f"cyc{vertices}-trunc{bound}")


def _candidates(vertices: int, bound: int):
    """``(extra dimension vectors, candidate, witnesses)`` for each subset of
    the non-projective indecomposables, in the sweep's order."""
    alg = _algebra(vertices, bound)
    witnesses = enumerate_indecomposables_nakayama(alg)
    lam = regular_module(alg)
    nonprojective = [x for x in witnesses if x.total_dim < bound]
    for r in range(len(nonprojective) + 1):
        for combo in itertools.combinations(nonprojective, r):
            yield [list(x.dims) for x in combo], direct_sum(alg, [lam, *combo]), witnesses


def _report(candidate, mode: str, witnesses) -> dict:
    kwargs = {"witnesses": witnesses} if mode == "enumeration" else {}
    rep = check_maximal_orthogonal(candidate, 1, mode=mode, **kwargs)
    assert (rep.mode, rep.bound) == (mode, 1)
    return {"verdict": rep.verdict, "clauses": [[c.name, c.passed, c.detail] for c in rep.clauses]}


def _record() -> list[dict]:
    out = []
    for vertices, bound in SWEEP:
        for extra, candidate, witnesses in _candidates(vertices, bound):
            for mode in MODES:
                out.append({"algebra": f"cyc{vertices}-trunc{bound}", "extra": extra, "mode": mode, **_report(candidate, mode, witnesses)})
    return out


def _records() -> list[dict]:
    return json.loads(DATA.read_text())


def test_the_record_covers_the_sweep():
    records = _records()
    assert len(records) == 2 * 156
    assert [r["mode"] for r in records] == list(MODES) * 156
    # criterion 8's winners, in both modes; every other candidate fails
    winners = [(r["algebra"], r["extra"]) for r in records[::2] if r["verdict"]]
    assert winners == [
        ("cyc2-trunc2", [[1, 0]]),
        ("cyc2-trunc2", [[0, 1]]),
        ("cyc2-trunc4", [[1, 0], [2, 1]]),
        ("cyc2-trunc4", [[0, 1], [1, 2]]),
    ]
    assert [r["verdict"] for r in records[::2]] == [r["verdict"] for r in records[1::2]]
    # every corollary clause list is complete, failing clauses included
    assert {len(r["clauses"]) for r in records} == {2, 4}


@pytest.mark.parametrize("vertices, bound", SWEEP)
def test_reports_match_the_record(vertices, bound):
    name = f"cyc{vertices}-trunc{bound}"
    expected = [r for r in _records() if r["algebra"] == name]
    got = []
    for extra, candidate, witnesses in _candidates(vertices, bound):
        for mode in MODES:
            got.append({"algebra": name, "extra": extra, "mode": mode, **_report(candidate, mode, witnesses)})
    assert got == expected


def test_a_verdict_alone_stops_before_the_endomorphism_ring(monkeypatch):
    # Lambda + S(1) + S(2) over cyc2-trunc2 fails selforthogonality
    extra, candidate, witnesses = list(_candidates(2, 2))[3]
    assert extra == [[1, 0], [0, 1]]
    expected = next(r for r in _records() if (r["algebra"], r["extra"], r["mode"]) == ("cyc2-trunc2", extra, "corollary"))
    assert [c[:2] for c in expected["clauses"]][2] == ["selforthogonality", False]
    built = []
    real = endo.end_ring
    monkeypatch.setattr(endo, "end_ring", lambda m: built.append(m) or real(m))
    report = check_maximal_orthogonal(candidate, 1, mode="corollary")
    assert report.verdict is False
    assert built == []
    assert [[c.name, c.passed, c.detail] for c in report.clauses] == expected["clauses"]
    assert built == [candidate]


def test_clauses_that_disagree_with_the_verdict_are_a_program_fault():
    report = MaxOrthogonalReport("corollary", 1, iter([ClauseReport("generator", True)]), lambda steps: [ClauseReport("generator", False)])
    assert report.verdict is True
    with pytest.raises(InternalError, match="disagree with the verdict"):
        report.clauses


def test_a_failed_first_read_leaves_no_partial_clauses():
    def steps():
        yield ClauseReport("generator", False)
        raise AlgebraError("refused")

    report = MaxOrthogonalReport("corollary", 1, steps(), list)
    assert report.verdict is False
    with pytest.raises(AlgebraError, match="refused"):
        report.clauses
    with pytest.raises(AlgebraError, match="failed part way"):
        report.clauses


if __name__ == "__main__":
    DATA.write_text("[\n" + ",\n".join(json.dumps(r) for r in _record()) + "\n]\n")

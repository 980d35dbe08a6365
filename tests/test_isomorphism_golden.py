"""Isomorphism answers and End(M)'s atom classes, pinned.

``data/isomorphism_golden.json`` records:

* ``is_isomorphic`` on every equal-dims pair of the syzygy-step corpus
  (``test_isomorphism.corpus_checks``), per algebra, as ``[x dims, y dims,
  answer]``;
* ``is_isomorphic`` both ways on the four-subspace pairs of
  ``test_isomorphism.py``, bricks and sums whose invariants all agree;
* ``iso_classes`` of the local parts of every End(M) of
  ``test_repeated_classes.py`` (its 20 End(M)s and both modules of its
  condition (d) pairs) and of both modules of the three ``theorem`` cases of
  the benchmark, with the parts' dimension vectors.

An answer that turns into a refusal (``AlgebraError``) is recorded as
``"refused"``; none is.  Every later route to isomorphism must give these
values unchanged.

Regenerate (only when an answer is meant to change) with
``PYTHONPATH=src:tests python3 tests/test_isomorphism_golden.py``.
"""

import json
from pathlib import Path

import pytest

from test_ext_catalog import _workloads
from test_isomorphism import _four_subspace, _lines, _plain, corpus_checks
from test_repeated_classes import CONDITION_D, ENDS, _algebra, _module
from test_syzygy_steps import ALGEBRAS
from relrep.cli import load_algebra
from relrep.path_algebra import AlgebraError
from relrep.rep import direct_sum, is_isomorphic, iso_classes, parse_module_expression, placed_parts, simple_module

DATA = Path(__file__).parent / "data" / "isomorphism_golden.json"


def _answer(x, y):
    try:
        return is_isomorphic(x, y)
    except AlgebraError:
        return "refused"


def _corpus(make) -> list:
    return [[list(x.dims), list(y.dims), _answer(x, y)] for x, y in corpus_checks(make())]


def _four_subspace_pairs() -> dict:
    alg = _four_subspace()
    x = _lines(alg, (1, 0), (1, 0), (0, 1), (1, 1))
    y = _lines(alg, (0, 1), (1, 1), (1, 0), (1, 0))
    s = simple_module(alg, 0)
    modules = {
        "X": x,
        "Y": y,
        "plain X+S": _plain(direct_sum(alg, [x, s])),
        "plain S+Y": _plain(direct_sum(alg, [s, y])),
        "S+X": direct_sum(alg, [s, x]),
        "S+Y": direct_sum(alg, [s, y]),
    }
    pairs = [("X", "Y"), ("plain X+S", "S+Y"), ("plain X+S", "S+X"), ("plain X+S", "plain S+Y"), ("S+X", "S+Y")]
    return {f"{p} ~ {q}": [_answer(modules[p], modules[q]), _answer(modules[q], modules[p])] for p, q in pairs}


def _ends() -> dict:
    """label -> a builder of the module, for every End(M) the record covers;
    a module two cases share is covered once."""
    out = {
        f"{name}: Λ+{extra}": lambda name=name, extra=extra: _module(_algebra(name), extra)
        for name, extra, *_ in ENDS
    }
    for e in (e for pair in CONDITION_D for e in pair):
        out[f"cyc3-trunc5: {e}"] = lambda e=e: parse_module_expression(_algebra("cyc3-trunc5"), e)
    for spec, *pair in _workloads().THEOREM_CASES:
        for e in pair:
            out[f"{Path(spec).name}: {e}"] = lambda spec=spec, e=e: parse_module_expression(load_algebra(spec)[1], e)
    return out


ENDS_COVERED = _ends()


def _classes(build) -> dict:
    parts = [part for part, *_ in placed_parts(build())]
    classes, keep = iso_classes(parts)
    return {"dims": [list(p.dims) for p in parts], "classes": classes, "keep": keep}


def _record() -> dict:
    return {
        "corpus": {make.__name__.strip("_"): _corpus(make) for make in ALGEBRAS},
        "four_subspace": _four_subspace_pairs(),
        "iso_classes": {label: _classes(build) for label, build in ENDS_COVERED.items()},
    }


@pytest.fixture(scope="module")
def records() -> dict:
    return json.loads(DATA.read_text(encoding="utf-8"))


def test_the_record_covers_every_input_and_refuses_none(records):
    assert list(records["corpus"]) == [make.__name__.strip("_") for make in ALGEBRAS]
    assert list(records["iso_classes"]) == list(ENDS_COVERED)
    answers = [a for rows in records["corpus"].values() for *_, a in rows]
    answers += [a for pair in records["four_subspace"].values() for a in pair]
    assert "refused" not in answers and True in answers and False in answers
    assert any(len(r["keep"]) < len(r["classes"]) for r in records["iso_classes"].values())


@pytest.mark.parametrize("make", ALGEBRAS, ids=lambda make: make.__name__.strip("_"))
def test_corpus_answers(records, make):
    assert _corpus(make) == records["corpus"][make.__name__.strip("_")]


def test_four_subspace_answers(records):
    assert _four_subspace_pairs() == records["four_subspace"]


@pytest.mark.parametrize("label", ENDS_COVERED)
def test_iso_classes_of_end(records, label):
    assert _classes(ENDS_COVERED[label]) == records["iso_classes"][label]


if __name__ == "__main__":
    record = _record()
    DATA.write_text(
        "{\n"
        + ",\n".join(
            f'"{part}": {{\n'
            + ",\n".join(f"{json.dumps(k, ensure_ascii=False)}: {json.dumps(v)}" for k, v in rows.items())
            + "\n}"
            for part, rows in record.items()
        )
        + "\n}\n",
        encoding="utf-8",
    )

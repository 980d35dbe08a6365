"""Golden CLI verdicts on ``builtin:cyclic3``: every command's output and exit
code must match ``tests/data/cli_verdicts_cyclic3.txt`` byte for byte.

The commands run in-process through ``relrep.cli.main``.  Each block of the
data file is a ``$ relrep ...`` line, the captured stdout, the captured
stderr (each line prefixed ``stderr: ``), and an ``exit = N`` line.
Regenerate the file (only when a verdict is meant to change) with

    PYTHONPATH=src python3 tests/test_cli_verdicts.py --write
"""

from __future__ import annotations

import contextlib
import io
import shlex
import sys
from pathlib import Path

import pytest

from relrep.cli import main

DATA = Path(__file__).parent / "data" / "cli_verdicts_cyclic3.txt"

ALG = "builtin:cyclic3"
M1 = "P(1)+P(2)+P(3)+S(1)+P(3)/rad^2"
M2 = "P(1)+P(2)+P(3)+S(1)+P(1)/rad^2"
BASE = "P(1)+P(2)+P(3)+S(1)"
MUT = "+P(1)/rad^4"

EXT_PAIRS = [
    ("P(1)/rad^2", "P(3)/rad^2"),
    ("P(3)/rad^2", "P(1)/rad^2"),
    ("S(1)", "S(2)"),
    ("S(2)", "S(1)"),
    ("P(2)/rad^3", "P(3)/rad^4"),
    ("S(3)+P(1)/rad^2", "P(2)/rad^2+S(1)"),
]

# extensions of sums: quotients out of vertex order with repeated atoms, sums
# as subs, and chosen classes, under both functor kinds
SUM_CLASSES = [
    ("P(3)/rad^2+S(1)+S(1)", "P(2)/rad^2+S(3)", f"F^M:{M1}", "1,0,1"),
    ("P(3)/rad^2+S(1)+S(1)", "P(2)/rad^2+S(3)", f"FM:{M2}", "0,1,1"),
    ("S(2)+P(3)/rad^2+S(1)", "S(3)+S(2)+S(3)", f"FM:{M2}", "1,0,0,1"),
    ("S(2)+P(3)/rad^2+S(1)", "S(3)+S(2)+S(3)", f"FM:{M2}", "0,1/2,0,-1"),
    ("S(2)+P(3)/rad^2+S(1)", "S(3)+P(1)/rad^2", f"F^M:{M2}", "1,0"),
    ("S(2)+P(3)/rad^2+S(1)", "S(3)+P(1)/rad^2", f"F^M:{M2}", "0,1"),
]

COMMANDS = (
    [
        ["check-maxortho", ALG, mod, "--l", str(l), "--mode", mode]
        for mod, l in ((M1, 2), (M1, 3), (M2, 2), ("S(1)", 1), (BASE, 1))
        for mode in ("corollary", "enumeration")
    ]
    + [
        ["exchange", ALG, BASE, "P(3)/rad^2", "P(1)/rad^2", "--max-len", "3"],
        ["exchange", ALG, BASE, "P(1)/rad^2", "P(3)/rad^2", "--max-len", "3"],
        ["verify-theorem", ALG, M1, M2, "--l", "2"],
        ["verify-theorem", ALG, M1 + MUT, M2, "--l", "2"],
        ["verify-theorem", ALG, M1, M2 + MUT, "--l", "2"],
    ]
    + [["ext", ALG, x, y, "--max-degree", "3"] for x, y in EXT_PAIRS]
    + [
        ["ext", ALG, x, y, "--max-degree", "2", "--functor", functor]
        for x, y in EXT_PAIRS[:4]
        for functor in (f"FM:{M2}", f"F^M:{M1}")
    ]
    + [
        ["dtr", ALG, mod] + flag
        for mod in ("P(3)/rad^2", "S(1)", "P(2)/rad^3+S(3)")
        for flag in ([], ["--inverse"])
    ]
    + [
        ["prop-gldim", ALG, M1, "--l", "2"],
        ["prop-gldim", ALG, "S(1)", "--l", "1"],
        ["gldim-endo", ALG, M1, "--bound", "3"],
        ["gldim-endo", ALG, M1, "--bound", "4"],
        ["gldim-endo", ALG, "S(1)", "--bound", "0"],
        ["relexact", ALG, "P(3)/rad^2", "P(1)/rad^2", "--functor", f"F^M:{M1}"],
        ["relexact", ALG, "P(1)/rad^2", "P(3)/rad^2", "--functor", f"FM:{M2}", "--class", "1"],
        ["relexact", ALG, "P(1)/rad^2", "P(3)/rad^2", "--functor", f"F^M:{M1}", "--class", "1"],
    ]
    + [
        ["relexact", ALG, quotient, sub, "--functor", functor, "--class", coords]
        for quotient, sub, functor, coords in SUM_CLASSES
    ]
)


def _header(argv) -> str:
    return "$ " + shlex.join(["relrep", *argv])


def render(argv) -> str:
    """One block of the data file: the command, its output and its exit code."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    lines = [_header(argv), out.getvalue().rstrip("\n")]
    lines += [f"stderr: {line}" for line in err.getvalue().splitlines()]
    lines.append(f"exit = {code}")
    return "\n".join(lines) + "\n"


def _golden() -> dict[str, str]:
    blocks: dict[str, str] = {}
    header = None
    for line in DATA.read_text(encoding="utf-8").splitlines(keepends=True):
        if line.startswith("$ "):
            header = line.rstrip("\n")
            blocks[header] = ""
        blocks[header] += line
    return blocks


def test_golden_file_lists_exactly_these_commands():
    assert list(_golden()) == [_header(argv) for argv in COMMANDS]


@pytest.mark.parametrize("argv", COMMANDS, ids=[" ".join(a[:1] + a[2:]) for a in COMMANDS])
def test_cli_output_matches_golden(argv):
    assert render(argv) == _golden()[_header(argv)]


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit(__doc__)
    DATA.parent.mkdir(exist_ok=True)
    DATA.write_text("".join(render(argv) for argv in COMMANDS), encoding="utf-8")

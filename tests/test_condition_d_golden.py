"""Golden answers of condition (d) of the four-condition theorem.

Condition (d) asks whether Hom(m2, m1) is cotilting over End(m1) and over
End(m2)^op: selforthogonal up to the bound l + 2 and of injective dimension
at most l + 2 on each side.  ``TheoremReport.details["d"]`` records, per
side, the Ext dimensions and the injective-dimension verdict.  These values
were recorded by the route that resolved the End(m2)^op side over a
structure-constant opposite algebra; every later route must give them
unchanged, labels included.

On the theorem's inputs the hypotheses bound every injective dimension, so
``injective_dimension_ok`` is True there.  ``OFF_GATE`` calls condition (d)
directly, past the hypothesis gate, on pairs over cyc2-trunc3 where both
sides fail their injective-dimension bound while the End(m1) side has
projective dimension at most 3 and the End(m2) dual injective dimension at
most 3: asking the other bound on either side turns a False into True.
"""

import pytest

from relrep.endo import _condition_d, verify_theorem
from relrep.path_algebra import AlgebraPresentation, cyclic_quiver
from relrep.rep import parse_module_expression

M1 = "P(1)+P(2)+P(3)+S(1)+P(3)/rad^2"
M2 = "P(1)+P(2)+P(3)+S(1)+P(1)/rad^2"
MUTATED = M1 + "+P(1)/rad^4"
C1 = "P(1)+P(2)+S(1)+P(1)/rad^3"
C2 = "P(1)+P(2)+S(2)+P(2)/rad^3"


def _sides(first: list, second: list, ok: bool = True) -> dict:
    return {
        "over-End(m1)": {"ext_dims": first, "injective_dimension_ok": ok},
        "over-End(m2)-op": {"ext_dims": second, "injective_dimension_ok": ok},
    }


# (quiver vertices, truncation, m1, m2, details["d"])
CASES = [
    (3, 5, M1, M2, _sides([0, 0, 0, 0], [0, 0, 0, 0])),
    (2, 4, C1, C2, _sides([0, 0, 0, 0], [0, 0, 0, 0])),
    (2, 4, C2, C1, _sides([0, 0, 0, 0], [0, 0, 0, 0])),
    (3, 5, M1, MUTATED, _sides([1, 0, 0, 0], [0, 0, 0, 0])),
    (3, 5, MUTATED, M1, _sides([0, 0, 0, 0], [0, 2, 0, 0])),
]


@pytest.mark.parametrize("vertices, bound, e1, e2, expected", CASES)
def test_condition_d_details(vertices, bound, e1, e2, expected):
    alg = AlgebraPresentation.truncated(cyclic_quiver(vertices), bound, name=f"cyc{vertices}-trunc{bound}")
    report = verify_theorem(parse_module_expression(alg, e1), parse_module_expression(alg, e2), 2)
    assert report.hypotheses_ok
    assert report.details["d"] == expected
    assert report.condition_d == (expected == _sides([0] * 4, [0] * 4))


# (m1, m2) over cyc2-trunc3, l = 1: both sides read Ext [0, 1, 0] and fail
OFF_GATE = [
    ("P(1)+P(2)+S(1)", "P(1)+P(2)+P(1)/rad^2"),
    ("P(1)+P(2)+S(2)", "P(1)+P(2)+P(2)/rad^2"),
]


@pytest.mark.parametrize("e1, e2", OFF_GATE)
def test_condition_d_off_the_hypothesis_gate(e1, e2):
    alg = AlgebraPresentation.truncated(cyclic_quiver(2), 3, name="cyc2-trunc3")
    ok, detail = _condition_d(parse_module_expression(alg, e1), parse_module_expression(alg, e2), 1)
    side = {"ext_dims": [0, 1, 0], "injective_dimension_ok": False}
    assert detail == {"over-End(m1)": side, "over-End(m2)-op": side}
    assert not ok

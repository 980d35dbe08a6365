"""Golden answers of condition (d) of the four-condition theorem.

Condition (d) asks whether Hom(m2, m1) is cotilting over End(m1) and over
End(m2)^op: selforthogonal up to the bound l + 2 and of injective dimension
at most l + 2 on each side.  ``TheoremReport.details["d"]`` records, per
side, the Ext dimensions and the injective-dimension verdict.  These values
were recorded by the route that resolved the End(m2)^op side over a
structure-constant opposite algebra; every later route must give them
unchanged, labels included.
"""

import pytest

from relrep.endo import verify_theorem
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

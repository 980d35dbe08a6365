import pytest

from relrep import homology, relhom
from relrep.exact_linalg import Matrix
from relrep.path_algebra import AlgebraPresentation, cyclic_quiver
from relrep.rep import Module, parse_module_expression

M1_EXPR = "P(1)+P(2)+P(3)+S(1)+P(3)/rad^2"
M2_EXPR = "P(1)+P(2)+P(3)+S(1)+P(1)/rad^2"


def zero_module(algebra: AlgebraPresentation) -> Module:
    """The zero module over ``algebra``."""
    maps = [Matrix.zeros(0, 0) for _ in algebra.quiver.arrows]
    return Module(algebra, (0,) * algebra.quiver.vertex_count, maps, validate=False)


@pytest.fixture(scope="session")
def cyc3_5():
    """Cyclic 3-vertex quiver with paths of length 5 truncated; dim 15."""
    return AlgebraPresentation.truncated(cyclic_quiver(3), 5, name="cyc3-trunc5")


@pytest.fixture(scope="session")
def m1(cyc3_5):
    return parse_module_expression(cyc3_5, M1_EXPR)


@pytest.fixture(scope="session")
def m2(cyc3_5):
    return parse_module_expression(cyc3_5, M2_EXPR)


@pytest.fixture
def approximations(monkeypatch):
    """Counts minimal right approximations, wherever they are called from."""
    calls = []
    real = homology.minimal_right_approximation

    def counted(x, m):
        calls.append(x.dims)
        return real(x, m)

    for module in (homology, relhom):
        monkeypatch.setattr(module, "minimal_right_approximation", counted)
    return calls

import pytest

from hallalg.quiver import Quiver, RepCategory, Representation
from hallalg.hall import HallAlgebra
from hallalg.linalg import Matrix
from oracles import simple_rep, zero_rep


@pytest.fixture(scope="session")
def a2():
    return Quiver(2, [(0, 1)], name="a2")


@pytest.fixture(scope="session")
def a3():
    return Quiver(3, [(0, 1), (1, 2)], name="a3-linear")


@pytest.fixture(scope="session")
def a3_source():
    return Quiver(3, [(1, 0), (1, 2)], name="a3-source")


@pytest.fixture(scope="session")
def ctx2(a2):
    return RepCategory(a2, 2)


@pytest.fixture(scope="session")
def ctx3(a2):
    return RepCategory(a2, 3)


@pytest.fixture(scope="session")
def ctx_a3(a3):
    return RepCategory(a3, 2)


@pytest.fixture(scope="session")
def hall2(ctx2):
    return HallAlgebra(ctx2)


@pytest.fixture(scope="session")
def hall3(ctx3):
    return HallAlgebra(ctx3)


def simples(ctx):
    q = ctx.quiver
    return [simple_rep(q, ctx.field, v) for v in range(q.n)]


@pytest.fixture(scope="session")
def reps2(ctx2):
    """Named A2 witnesses over F_2: S1, S2, their sum, and the projective P1."""
    S1, S2 = simples(ctx2)
    P1 = Representation(ctx2.quiver, ctx2.field, (1, 1), [Matrix(ctx2.field, [[1]])])
    return {"S1": S1, "S2": S2, "SS": S1.direct_sum(S2), "P1": P1,
            "zero": zero_rep(ctx2.quiver, ctx2.field)}


@pytest.fixture(scope="session")
def reps3(ctx3):
    S1, S2 = simples(ctx3)
    P1 = Representation(ctx3.quiver, ctx3.field, (1, 1), [Matrix(ctx3.field, [[1]])])
    return {"S1": S1, "S2": S2, "SS": S1.direct_sum(S2), "P1": P1,
            "zero": zero_rep(ctx3.quiver, ctx3.field)}

import numpy as np
import pytest

from gradalign.objectives import FederatedProblem, QuadraticClient
from gradalign.params import SeededStream
from gradalign.verify import (
    fixture_dyadic,
    fixture_logistic_problem,
    fixture_mlp_problem,
    fixture_pair_1d,
    fixture_random_quadratic,
    mlp_start,
)


@pytest.fixture
def stream():
    return SeededStream(12345)


@pytest.fixture
def pair_1d():
    """f1 = x^2, f2 = 0: r(x) = x^2/2, grad r = x."""
    return fixture_pair_1d()


@pytest.fixture
def dyadic_problem():
    return fixture_dyadic()


@pytest.fixture
def quad3():
    return fixture_random_quadratic(n=3, d=2, spread=0.5, seed=7)


@pytest.fixture
def logistic_problem():
    return fixture_logistic_problem()


@pytest.fixture
def mlp_problem():
    return fixture_mlp_problem()


@pytest.fixture
def mlp_x0(mlp_problem):
    return mlp_start(mlp_problem)


def make_homogeneous(n=3, d=2, seed=5):
    """n bit-identical quadratic clients (zero gradient variance)."""
    rng = np.random.default_rng(seed)
    M = rng.standard_normal((d, d))
    A = M @ M.T / d + np.eye(d)
    b = rng.standard_normal(d)
    return FederatedProblem([QuadraticClient(A, b, client_id=i) for i in range(n)])

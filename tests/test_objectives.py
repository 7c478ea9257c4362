import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gradalign.errors import DimensionError, NumericError, UsageError
from gradalign.objectives import (
    FederatedProblem,
    LogisticClient,
    MLPClient,
    QuadraticClient,
    make_quadratic_problem,
    make_supervised_client,
)
from gradalign.params import SeededStream, mean_reduce


def fd_grad(fn, x, eps=1e-6):
    g = np.empty_like(x)
    e = np.zeros_like(x)
    for j in range(x.size):
        e[j] = eps
        g[j] = (fn(x + e) - fn(x - e)) / (2 * eps)
        e[j] = 0.0
    return g


def small_logistic(seed=0, n=40, m=3, c=2, l2=0.0, balanced=False):
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n, m))
    if balanced:
        y = np.tile(np.arange(c), n // c).astype(np.int64)
        X[y == 1] += 1.0
    else:
        y = rng.integers(0, c, n).astype(np.int64)
    return LogisticClient(X, y, c, l2_decay=l2)


# ---------------------------------------------------------------------------
# quadratic clients
# ---------------------------------------------------------------------------


def test_quadratic_grad_1d():
    c = QuadraticClient([[2.0]], [0.0])
    assert c.grad(np.array([1.0]))[0] == 2.0


def test_quadratic_hvp_forced():
    c = QuadraticClient([[2.0]], [0.0])
    assert c.hvp(np.array([1.0]), np.array([3.0]))[0] == 6.0


def test_hvp_zero_direction_returns_zero():
    c = QuadraticClient([[2.0]], [0.0])
    assert np.array_equal(c.hvp(np.array([1.0]), np.zeros(1)), [0.0])
    lc = small_logistic()
    assert np.array_equal(lc.hvp(np.zeros(lc.dim), np.zeros(lc.dim)), np.zeros(lc.dim))


def test_quadratic_requires_symmetry():
    with pytest.raises(UsageError):
        QuadraticClient([[1.0, 0.5], [0.0, 1.0]], [0.0, 0.0])


@pytest.mark.filterwarnings("ignore:overflow encountered")
def test_nonfinite_gradient_names_client():
    from gradalign.errors import NumericError

    c = QuadraticClient([[1e300]], [0.0], client_id=4)
    with pytest.raises(NumericError, match="4"):
        c.grad(np.array([1e300]))


def test_quadratic_grad_is_affine():
    rng = np.random.default_rng(2)
    prob = make_quadratic_problem(3, 4, 0.7, SeededStream(9))
    for c in prob:
        x, y = rng.standard_normal(4), rng.standard_normal(4)
        for a in (0.25, 0.5, 0.9):
            lhs = c.grad(a * x + (1 - a) * y)
            rhs = a * c.grad(x) + (1 - a) * c.grad(y)
            np.testing.assert_allclose(lhs, rhs, rtol=1e-12, atol=1e-12)


def test_make_quadratic_problem_mean_zero_deviations():
    prob = make_quadratic_problem(3, 2, 0.5, SeededStream(4))
    A_bar = sum(c.A for c in prob) / 3
    dev_sum = sum(c.A - A_bar for c in prob)
    assert np.abs(dev_sum).max() < 1e-12
    assert np.abs(sum(c.b for c in prob)).max() < 1e-12


def test_make_quadratic_problem_spread_zero_homogeneous_hessians():
    prob = make_quadratic_problem(4, 3, 0.0, SeededStream(5))
    for c in prob[1:]:
        assert np.array_equal(c.A, prob[0].A)


def test_make_quadratic_problem_mean_positive_definite():
    prob = make_quadratic_problem(5, 6, 1.0, SeededStream(6))
    A_bar = sum(c.A for c in prob) / 5
    assert np.linalg.eigvalsh(A_bar).min() > 0


def test_fixed_pair_fixture_values(pair_1d):
    x = np.array([1.0])
    assert pair_1d.grad(x)[0] == 1.0
    devs = [c.grad(x)[0] - 1.0 for c in pair_1d.clients]
    assert devs == [1.0, -1.0]


# ---------------------------------------------------------------------------
# supervised clients
# ---------------------------------------------------------------------------


def test_logistic_grad_matches_finite_differences():
    c = small_logistic(seed=3, l2=0.01)
    rng = np.random.default_rng(10)
    x = 0.5 * rng.standard_normal(c.dim)
    g = c.grad(x)
    np.testing.assert_allclose(g, fd_grad(c.value, x), rtol=1e-5, atol=1e-7)


def test_logistic_bias_grad_zero_at_origin_balanced():
    c = small_logistic(seed=4, c=2, balanced=True)
    g = c.grad(np.zeros(c.dim))
    m = c.features.shape[1]
    bias = g[m * 2:]
    np.testing.assert_allclose(bias, 0.0, atol=1e-12)


def test_mlp_grad_matches_finite_differences():
    rng = np.random.default_rng(5)
    X = rng.standard_normal((25, 3))
    y = rng.integers(0, 3, 25).astype(np.int64)
    c = MLPClient(X, y, 3, hidden=5, l2_decay=0.001)
    x = 0.4 * rng.standard_normal(c.dim)
    np.testing.assert_allclose(c.grad(x), fd_grad(c.value, x), rtol=1e-5, atol=1e-7)


@pytest.mark.parametrize("model", ["logistic", "mlp"])
def test_epoch_average_of_stoch_grads_equals_grad(model):
    rng = np.random.default_rng(6)
    X = rng.standard_normal((24, 3))
    y = rng.integers(0, 3, 24).astype(np.int64)
    c = make_supervised_client(X, y, 3, model=model, hidden=4, l2_decay=0.01)
    x = 0.3 * rng.standard_normal(c.dim)
    perm = rng.permutation(24)
    batches = [perm[k * 6:(k + 1) * 6] for k in range(4)]
    avg = mean_reduce([c.stoch_grad(x, b) for b in batches])
    np.testing.assert_allclose(avg, c.grad(x), rtol=1e-9, atol=1e-12)


def test_quadratic_stoch_grad_is_grad():
    c = QuadraticClient([[2.0]], [1.0])
    x = np.array([0.3])
    assert np.array_equal(c.stoch_grad(x, np.array([0])), c.grad(x))


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_hvp_symmetry_all_clients(seed, quad3, logistic_problem, mlp_problem, mlp_x0):
    rng = np.random.default_rng(seed)
    for prob, x in ((quad3, rng.standard_normal(quad3.dim)),
                    (logistic_problem, 0.2 * rng.standard_normal(logistic_problem.dim)),
                    (mlp_problem, mlp_x0)):
        for c in prob.clients:
            u = rng.standard_normal(c.dim)
            u /= np.linalg.norm(u)
            v = rng.standard_normal(c.dim)
            v /= np.linalg.norm(v)
            lhs = float(v @ c.hvp(x, u))
            rhs = float(u @ c.hvp(x, v))
            assert abs(lhs - rhs) <= 1e-10 * max(abs(lhs), abs(rhs), 1.0)


def test_logistic_hvp_matches_dense_fd_hessian():
    c = small_logistic(seed=8, n=30, m=2, c=2)
    rng = np.random.default_rng(11)
    x = 0.4 * rng.standard_normal(c.dim)
    v = rng.standard_normal(c.dim)
    eps = 1e-5
    H = np.empty((c.dim, c.dim))
    e = np.zeros(c.dim)
    for j in range(c.dim):
        e[j] = eps
        H[:, j] = (c.grad(x + e) - c.grad(x - e)) / (2 * eps)
        e[j] = 0.0
    np.testing.assert_allclose(c.hvp(x, v), H @ v, rtol=1e-4, atol=1e-6)


def test_federated_problem_mean_services(pair_1d):
    x = np.array([2.0])
    assert pair_1d.value(x) == pytest.approx(2.0)  # (4 + 0)/2
    assert pair_1d.grad(x)[0] == pytest.approx(2.0)
    assert pair_1d.subset([0]).grad(x)[0] == pytest.approx(4.0)


def test_federated_problem_dim_mismatch():
    with pytest.raises(DimensionError):
        FederatedProblem([QuadraticClient([[1.0]], [0.0]),
                          QuadraticClient(np.eye(2), [0.0, 0.0])])


@settings(max_examples=60, deadline=None, derandomize=True)
@given(model=st.sampled_from(["logistic", "mlp"]), sizes=st.lists(st.integers(1, 12), min_size=1,
       max_size=5), batch=st.integers(1, 6), full=st.lists(st.booleans(), min_size=5, max_size=5),
       l2=st.sampled_from([0.0, 0.1]), seed=st.integers(0, 2**16))
def test_stacked_grads_rows_are_bitwise_stoch_grad(model, sizes, batch, full, l2, seed):
    # uneven clients, ragged tail batches and full-data rows mixed in one call
    rng = np.random.default_rng(seed)
    clients = [make_supervised_client(rng.standard_normal((n, 3)), rng.integers(0, 3, n), 3,
                                      model=model, hidden=4, l2_decay=l2, client_id=i)
               for i, n in enumerate(sizes)]
    problem = FederatedProblem(clients)
    idx = [i for i in range(len(sizes)) for _ in range(2)]
    batches = [None if full[i] else rng.permutation(sizes[i])[:batch] for i in idx]
    Y = rng.standard_normal((len(idx), problem.dim))
    for _ in range(2):  # the second call reuses the cached full-data stack
        G = problem.stacked_grads(idx, Y, batches)
        for j, i in enumerate(idx):
            assert G[j].tobytes() == clients[i].stoch_grad(Y[j], batches[j]).tobytes()
    for x in (Y[0], Y[-1]):
        expected = [c.grad(x).tobytes() for c in clients]
        assert [g.tobytes() for g in problem.client_grads(x)] == expected


def test_stacked_grads_names_the_lowest_non_finite_client(quad3, logistic_problem):
    Y = np.zeros((3, logistic_problem.dim))
    Y[1:, 0] = np.inf
    with pytest.raises(NumericError, match="from client 1"):
        logistic_problem.stacked_grads([0, 1, 2], Y, [None] * 3)
    Yq = np.ones((3, quad3.dim))
    Yq[2] = np.nan
    with pytest.raises(NumericError, match="from client 2"):
        quad3.stacked_grads([0, 1, 2], Yq, [None] * 3)

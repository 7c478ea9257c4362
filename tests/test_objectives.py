import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gradalign.errors import DimensionError, NumericError, UsageError
from gradalign.objectives import (
    ClientObjective,
    FederatedProblem,
    LogisticClient,
    MLPClient,
    QuadraticClient,
    make_quadratic_problem,
    make_supervised_client,
)
from gradalign.params import SeededStream, mean_reduce
from gradalign.regularizer import estimate_smoothness_constants, regularizer_report
from gradalign.verify import fixture_logistic_problem


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
    assert np.array_equal(FederatedProblem([c]).hvps([0], np.array([1.0]), np.zeros((1, 1))),
                          [[0.0]])
    lc = small_logistic()
    zeros = np.zeros((1, lc.dim))
    assert np.array_equal(FederatedProblem([lc]).hvps([0], np.zeros(lc.dim), zeros), zeros)


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
        for ci in range(prob.n):
            u = rng.standard_normal(prob.dim)
            u /= np.linalg.norm(u)
            v = rng.standard_normal(prob.dim)
            v /= np.linalg.norm(v)
            lhs = float(v @ prob.hvps([ci], x, u[None])[0])
            rhs = float(u @ prob.hvps([ci], x, v[None])[0])
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
    np.testing.assert_allclose(FederatedProblem([c]).hvps([0], x, v[None])[0], H @ v,
                               rtol=1e-4, atol=1e-6)


def test_federated_problem_mean_services(pair_1d):
    x = np.array([2.0])
    assert pair_1d.value(x) == pytest.approx(2.0)  # (4 + 0)/2
    assert pair_1d.grad(x)[0] == pytest.approx(2.0)
    assert FederatedProblem([pair_1d.clients[0]]).grad(x)[0] == pytest.approx(4.0)


def test_federated_problem_dim_mismatch():
    with pytest.raises(DimensionError):
        FederatedProblem([QuadraticClient([[1.0]], [0.0]),
                          QuadraticClient(np.eye(2), [0.0, 0.0])])


# (classes, input width) of the generated clients: a small shape, and one as
# wide as the benchmark problems, where the class-major layout matters
SHAPES = st.sampled_from([(3, 3), (10, 16)])


def make_clients(model, sizes, shape, l2, rng):
    c, d = shape
    return [make_supervised_client(rng.standard_normal((n, d)), rng.integers(0, c, n), c,
                                   model=model, hidden=4, l2_decay=l2, client_id=i)
            for i, n in enumerate(sizes)]


@settings(max_examples=60, deadline=None, derandomize=True)
@given(model=st.sampled_from(["logistic", "mlp"]), sizes=st.lists(st.integers(1, 12), min_size=1,
       max_size=5), batch=st.integers(1, 6), full=st.lists(st.booleans(), min_size=5, max_size=5),
       l2=st.sampled_from([0.0, 0.1]), shape=SHAPES, seed=st.integers(0, 2**16))
def test_stacked_grads_rows_are_bitwise_stoch_grad(model, sizes, batch, full, l2, shape, seed):
    # uneven clients, ragged tail batches and full-data rows mixed in one call
    rng = np.random.default_rng(seed)
    clients = make_clients(model, sizes, shape, l2, rng)
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


@settings(max_examples=40, deadline=None, derandomize=True)
@given(model=st.sampled_from(["logistic", "mlp"]), sizes=st.lists(st.integers(1, 12), min_size=1,
       max_size=4), batch=st.integers(1, 6), K=st.integers(1, 4),
       full_steps=st.lists(st.booleans(), min_size=4, max_size=4), shape=SHAPES,
       seed=st.integers(0, 2**16))
def test_round_gather_rows_are_bitwise_stoch_grad(model, sizes, batch, K, full_steps, shape,
                                                  seed):
    """A K-step gather, then one compute call per step, gives every row's
    stoch_grad; the steps on full data share one gathered stack."""
    rng = np.random.default_rng(seed)
    clients = make_clients(model, sizes, shape, 0.1, rng)
    problem = FederatedProblem(clients)
    idx = list(range(len(sizes)))
    steps = [[None if full_steps[k] else rng.permutation(sizes[i])[:batch] for i in idx]
             for k in range(K)]
    plans = problem.gather(idx, steps)
    assert len(plans) == K
    for k in range(K):
        Y = rng.standard_normal((len(idx), problem.dim))
        G = problem.gathered_grads(idx, Y, plans[k])
        for j, i in enumerate(idx):
            assert G[j].tobytes() == clients[i].stoch_grad(Y[j], steps[k][j]).tobytes()
    full_stacks = {id(X) for k in range(K) if full_steps[k] for _, X, _ in plans[k][1]}
    assert len(full_stacks) <= len(set(sizes))


class SignKeepingClient(ClientObjective):
    """f(x) = |x|^2 / 2 with the gradient ``x`` itself, so a gradient shows
    the sign of a zero in the point (a quadratic's matmul does not)."""

    def __init__(self, dim, client_id=None):
        self.dim = dim
        self.client_id = client_id

    def value(self, x):
        return 0.5 * float(x @ x)

    def grad(self, x):
        return self._checked(x.copy())


def held_grads_problem(kind, sizes, l2, shape, rng):
    if kind == "quadratic":
        quads = make_quadratic_problem(len(sizes), 4, 0.5, SeededStream(int(rng.integers(99))))
        return FederatedProblem(quads + [SignKeepingClient(4, client_id=len(quads))])
    return FederatedProblem(make_clients(kind, sizes, shape, l2, rng))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(kind=st.sampled_from(["logistic", "mlp", "quadratic"]),
       sizes=st.lists(st.sampled_from([3, 5, 8]), min_size=1, max_size=5),
       l2=st.sampled_from([0.0, 0.1]), shape=SHAPES, seed=st.integers(0, 2**16), data=st.data())
def test_full_grads_rows_are_bitwise_stoch_grad(kind, sizes, l2, shape, seed, data):
    """Over a sequence of points with repeats, and points that differ only in
    the sign of a zero, every row of ``full_grads`` and ``client_grads`` is
    the client's own full-data gradient at that point."""
    rng = np.random.default_rng(seed)
    problem = held_grads_problem(kind, sizes, l2, shape, rng)
    clients, n = problem.clients, problem.n
    base = rng.standard_normal(problem.dim)
    base[rng.random(problem.dim) < 0.5] = 0.0
    flipped = base.copy()
    flipped[base == 0.0] = -0.0
    points = [base, flipped, 0.5 * base, np.zeros(problem.dim), -np.zeros(problem.dim)]
    for _ in range(data.draw(st.integers(1, 8), label="length")):
        x = points[data.draw(st.integers(0, len(points) - 1), label="point")].copy()
        if data.draw(st.booleans(), label="all"):
            G = problem.client_grads(x)
            idx = range(n)
        else:
            idx = data.draw(st.permutations(range(n)), label="order")
            idx = idx[:data.draw(st.integers(1, n), label="m")]
            G = problem.full_grads(idx, x)
            assert G.shape == (len(idx), problem.dim) and G.flags.writeable
        for j, i in enumerate(idx):
            assert G[j].tobytes() == clients[i].stoch_grad(x, None).tobytes()


@settings(max_examples=40, deadline=None, derandomize=True)
@given(model=st.sampled_from(["logistic", "mlp"]),
       sizes=st.lists(st.sampled_from([1, 4, 9]), min_size=1, max_size=12),
       l2=st.sampled_from([0.0, 0.1]), with_quadratic=st.booleans(), shape=SHAPES,
       scale=st.sampled_from([0.1, 3.0, 300.0]), seed=st.integers(0, 2**16))
def test_value_is_bitwise_the_client_loop(model, sizes, l2, with_quadratic, shape, scale, seed):
    """``FederatedProblem.value`` (one stacked kernel call per group) is
    bitwise the mean of the clients' own values, summed in client order."""
    rng = np.random.default_rng(seed)
    clients = make_clients(model, sizes, shape, l2, rng)
    if with_quadratic:
        M = rng.standard_normal((clients[0].dim,) * 2)
        clients.insert(len(clients) // 2,
                       QuadraticClient(M + M.T, rng.standard_normal(clients[0].dim)))
    problem = FederatedProblem(clients)
    for x in (scale * rng.standard_normal(problem.dim), np.zeros(problem.dim)):
        total = 0.0
        for c in clients:
            total += c.value(x)
        got = problem.value(x)
        assert type(got) is float
        assert np.array(got).tobytes() == np.array(total / len(clients)).tobytes()


def test_hvps_keep_no_repeated_client_stacks():
    """Only the all-clients stack of each full-data group is kept for the
    problem's lifetime: the repeated-client row layouts of a regularizer
    report (2n rows) and of smoothness probes (2n x directions) are taken
    afresh and not kept."""
    problem = fixture_logistic_problem(n_clients=10, n_classes=10, per_class=8)
    assert len({c.data_size for c in problem.clients}) == 1
    x = 0.1 * np.arange(problem.dim) / problem.dim
    regularizer_report(problem, x)
    estimate_smoothness_constants(problem, x, 0.5, 3, SeededStream(4))
    assert len(problem._all_stacks) == 1
    assert all(len(set(members)) == len(members) for members in problem._full_stacks)
    problem.full_grads([3, 1], -x)  # a subset's stack is kept until the next one
    assert list(problem._full_stacks) == [(1, 3)]


def test_writing_into_returned_gradients_changes_no_later_result(logistic_problem, quad3):
    for problem in (logistic_problem, quad3):
        n, x = problem.n, np.linspace(-0.5, 0.5, problem.dim)
        want = [c.grad(x).tobytes() for c in problem.clients]
        for _ in range(2):
            for G in (problem.client_grads(x), problem.full_grads(range(n), x),
                      problem.full_grads([n - 1, 0], x),
                      problem.stacked_grads(range(n), np.tile(x, (n, 1)), [None] * n)):
                for g in G:
                    g[:] = np.nan
        assert [g.tobytes() for g in problem.client_grads(x)] == want
        assert [g.tobytes() for g in problem.full_grads(range(n), x)] == want
        G = problem.stacked_grads(range(n), np.tile(x, (n, 1)), [None] * n)
        assert [g.tobytes() for g in G] == want


_EPS_CBRT = float(np.cbrt(np.finfo(np.float64).eps))


def reference_hvp(client, x, v):
    """One client's Hessian-vector product by central differences of its
    gradient, one client and one direction at a time (the per-client path
    that ``FederatedProblem.hvps`` replaced)."""
    vn = float(np.linalg.norm(v))
    if vn == 0.0:
        return np.zeros_like(v)
    eps = _EPS_CBRT * (1.0 + float(np.linalg.norm(x))) / max(vn, 1e-12)
    return (client.grad(x + eps * v) - client.grad(x - eps * v)) / (2.0 * eps)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(kind=st.sampled_from(["logistic", "mlp", "quadratic"]),
       sizes=st.lists(st.sampled_from([3, 5, 8]), min_size=1, max_size=4),
       l2=st.sampled_from([0.0, 0.1]), with_quadratic=st.booleans(),
       scale=st.sampled_from([0.1, 3.0, 300.0]), seed=st.integers(0, 2**16), data=st.data())
def test_hvps_rows_are_bitwise_the_reference(kind, sizes, l2, with_quadratic, scale, seed, data):
    """Every row of ``hvps`` is the per-client central difference bit for bit
    (``A @ v`` for quadratic rows) over uneven clients, repeated and unordered
    client indices, zero directions and a wide range of input scales; no
    input is modified."""
    rng = np.random.default_rng(seed)
    if kind == "quadratic":
        clients = make_quadratic_problem(len(sizes), 4, 0.5, SeededStream(seed))
    else:
        clients = [make_supervised_client(rng.standard_normal((n, 3)), rng.integers(0, 3, n), 3,
                                          model=kind, hidden=4, l2_decay=l2, client_id=i)
                   for i, n in enumerate(sizes)]
        if with_quadratic:
            M = rng.standard_normal((clients[0].dim,) * 2)
            clients.append(QuadraticClient(M + M.T, rng.standard_normal(clients[0].dim)))
    problem = FederatedProblem(clients)
    idx = data.draw(st.lists(st.integers(0, problem.n - 1), min_size=1, max_size=8), label="idx")
    x = scale * rng.standard_normal(problem.dim)
    V = scale * rng.standard_normal((len(idx), problem.dim))
    V[rng.random(len(idx)) < 0.3] = rng.choice([0.0, -0.0])
    x_in, V_in, idx_in = x.copy(), V.copy(), list(idx)
    H = problem.hvps(idx, x, V)
    assert H.shape == V.shape
    assert x.tobytes() == x_in.tobytes() and V.tobytes() == V_in.tobytes() and idx == idx_in
    for j, i in enumerate(idx):
        c = clients[i]
        want = c.A @ V[j] if c.data_size is None else reference_hvp(c, x, V[j])
        assert H[j].tobytes() == want.tobytes()
    with pytest.raises(DimensionError):
        problem.hvps(idx, x, V[:, :-1])

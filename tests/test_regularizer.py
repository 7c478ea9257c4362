import numpy as np
import pytest

from gradalign import kernels
from gradalign.objectives import FederatedProblem, QuadraticClient
from gradalign.params import SeededStream
from gradalign.regularizer import (
    _fd_grad_of_r,
    estimate_smoothness_constants,
    regularizer_report,
    regularizer_value,
    surrogate_grad,
    surrogate_value,
)

from conftest import make_homogeneous


def test_homogeneous_clients_zero_regularizer():
    prob = make_homogeneous()
    rep = regularizer_report(prob, np.array([0.3, -0.8]))
    assert rep.r_value == 0.0
    assert np.array_equal(rep.grad_r, np.zeros(2))
    assert np.array_equal(rep.per_client_dev, np.zeros(3))


def test_pair_fixture_hand_values(pair_1d):
    # r(x) = x^2/2, grad r = x for f1 = x^2, f2 = 0
    rep = regularizer_report(pair_1d, np.array([1.0]))
    assert rep.r_value == pytest.approx(0.5, abs=1e-15)
    assert rep.grad_r[0] == pytest.approx(1.0, abs=1e-14)


def test_r_from_fixed_gradient_pair():
    # two clients with gradients (1,0) and (-1,0) at x: r = (1+1)/(2*2) = 0.5
    prob = FederatedProblem([
        QuadraticClient(np.zeros((2, 2)), [1.0, 0.0]),
        QuadraticClient(np.zeros((2, 2)), [-1.0, 0.0]),
    ])
    rep = regularizer_report(prob, np.array([5.0, -2.0]))
    assert rep.r_value == pytest.approx(0.5, abs=1e-15)


def test_r_value_consistent_with_devs(quad3):
    rep = regularizer_report(quad3, np.array([0.4, -0.3]))
    recon = float((rep.per_client_dev ** 2).sum()) / (2 * quad3.n)
    assert rep.r_value == pytest.approx(recon, rel=1e-12)
    assert (rep.r_value == 0.0) == bool((rep.per_client_dev == 0).all())


@pytest.mark.parametrize("fixture", ["pair_1d", "quad3", "dyadic_problem",
                                     "logistic_problem", "mlp_problem"])
def test_regularizer_value_is_bitwise_the_report(fixture, request):
    prob = request.getfixturevalue(fixture)
    rng = np.random.default_rng(11)
    for _ in range(4):
        x = rng.standard_normal(prob.dim)
        r = regularizer_report(prob, x).r_value
        assert regularizer_value(prob.client_grads(x)) == r
        assert regularizer_value(iter(prob.client_grads(x))) == r


@pytest.mark.parametrize("fixture", ["pair_1d", "quad3", "dyadic_problem",
                                     "logistic_problem", "mlp_problem"])
def test_report_from_held_grads_is_bitwise_the_report(fixture, request):
    prob = request.getfixturevalue(fixture)
    rng = np.random.default_rng(12)
    for _ in range(3):
        x = rng.standard_normal(prob.dim)
        a = regularizer_report(prob, x)
        for grads in (prob.client_grads(x), iter(prob.client_grads(x))):
            b = regularizer_report(prob, x, grads=grads)
            assert b.r_value == a.r_value
            assert b.per_client_dev.tobytes() == a.per_client_dev.tobytes()
            assert b.grad_r.tobytes() == a.grad_r.tobytes()


def test_surrogate_value_identities(pair_1d):
    x = np.array([1.0])
    assert surrogate_value(pair_1d, x, 0.0) == pytest.approx(0.5)
    assert surrogate_value(pair_1d, x, 0.1) == pytest.approx(0.55, abs=1e-15)
    prob = make_homogeneous()
    xh = np.array([0.2, 0.7])
    assert surrogate_value(prob, xh, 3.0) == pytest.approx(prob.value(xh), abs=1e-15)


def test_grad_r_closed_form_quadratics(quad3):
    # brute-force matrix oracle: mean_i (A_i - Abar)((A_i - Abar) x + (b_i - bbar))
    x = np.array([0.7, -0.4])
    A_bar = sum(c.A for c in quad3.clients) / quad3.n
    b_bar = sum(c.b for c in quad3.clients) / quad3.n
    oracle = np.zeros(2)
    for c in quad3.clients:
        dA = c.A - A_bar
        oracle += dA @ (dA @ x + (c.b - b_bar))
    oracle /= quad3.n
    rep = regularizer_report(quad3, x)
    np.testing.assert_allclose(rep.grad_r, oracle, rtol=1e-12, atol=1e-14)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_grad_r_matches_fd_of_r_quadratic(seed, quad3):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(2)
    rep = regularizer_report(quad3, x)
    fd = _fd_grad_of_r(quad3, x)
    np.testing.assert_allclose(fd, rep.grad_r,
                               rtol=1e-6, atol=1e-8 * max(1, np.linalg.norm(rep.grad_r)))


def test_grad_r_matches_fd_of_r_supervised(logistic_problem):
    # small probe: hvp-assembled grad r against central differences of r
    rng = np.random.default_rng(3)
    x = 0.1 * rng.standard_normal(logistic_problem.dim)
    rep = regularizer_report(logistic_problem, x)
    fd = _fd_grad_of_r(logistic_problem, x)
    np.testing.assert_allclose(rep.grad_r, fd, rtol=1e-5,
                               atol=1e-6 * max(1, np.linalg.norm(fd)))


def test_r_invariant_under_common_affine_shift(quad3):
    # adding c.x to every client's objective shifts every gradient equally
    shift = np.array([0.9, -1.7])
    shifted = FederatedProblem([
        QuadraticClient(c.A, c.b + shift, client_id=c.client_id) for c in quad3.clients
    ])
    x = np.array([0.2, 0.6])
    a = regularizer_report(quad3, x)
    b = regularizer_report(shifted, x)
    assert a.r_value == pytest.approx(b.r_value, rel=1e-12)
    np.testing.assert_allclose(a.grad_r, b.grad_r, rtol=1e-12, atol=1e-14)


# ---------------------------------------------------------------------------
# smoothness estimates
# ---------------------------------------------------------------------------


def test_single_quadratic_exact_constants(stream):
    prob = FederatedProblem([QuadraticClient([[2.0]], [0.0])])
    est = estimate_smoothness_constants(prob, np.array([0.5]), 1.0, 6, stream)
    assert est.L1 == pytest.approx(2.0, rel=1e-12)
    assert est.rho <= 1e-8
    assert est.probes == 6


def test_homogeneous_zero_L2(stream):
    prob = make_homogeneous()
    est = estimate_smoothness_constants(prob, np.zeros(2), 1.0, 6, stream)
    assert est.L2 <= 1e-8


def test_pair_fixture_L2_is_one(pair_1d, stream):
    est = estimate_smoothness_constants(pair_1d, np.array([0.0]), 1.0, 8, stream)
    assert est.L2 == pytest.approx(1.0, abs=1e-6)
    assert est.L1 == pytest.approx(1.0, abs=1e-6)


def test_estimates_are_lower_bounds(quad3, stream):
    est = estimate_smoothness_constants(quad3, np.zeros(2), 1.0, 8, stream)
    A_bar = sum(c.A for c in quad3.clients) / quad3.n
    true_L1 = float(np.abs(np.linalg.eigvalsh(A_bar)).max())
    assert est.L1 <= true_L1 + 1e-9
    assert est.rho <= 1e-8  # constant Hessians


def count_kernel_calls(monkeypatch):
    """Route both value+grad kernels through a counter; returns its list."""
    calls = []
    for name in ("logistic_value_grad", "mlp_value_grad"):
        kernel = getattr(kernels, name)
        monkeypatch.setattr(kernels, name,
                            lambda *args, _kernel=kernel: (calls.append(1), _kernel(*args))[1])
    return calls


@pytest.mark.parametrize("fixture", ["logistic_problem", "mlp_problem"])
def test_hvps_take_at_most_two_kernel_calls_per_group(fixture, request, monkeypatch):
    """A report's 2n Hessian-vector products, and each probe's, are stacked:
    at most two kernel calls per group of clients sharing a model and a data
    size, where one call per client and direction takes 4n for a report."""
    prob = request.getfixturevalue(fixture)
    groups = len({(c._kernel, c._shapes, c.l2_decay, c.data_size) for c in prob.clients})
    x = 0.2 * np.random.default_rng(5).standard_normal(prob.dim)
    G = prob.client_grads(x)
    calls = count_kernel_calls(monkeypatch)
    rep = regularizer_report(prob, x, grads=G)
    assert len(calls) <= 2 * groups
    assert rep.grad_r.tobytes() == regularizer_report(prob, x).grad_r.tobytes()
    calls.clear()
    probes = 4
    estimate_smoothness_constants(prob, x, 0.5, probes, SeededStream(3))
    # per probe: the client gradients, then the report's and the rho products
    assert len(calls) <= probes * (1 + 2 + 2) * groups

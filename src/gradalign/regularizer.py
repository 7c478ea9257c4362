"""Gradient-variance regularizer r(x), its gradient, the surrogate objective,
and probe-based smoothness estimates.

r(x) is half the mean squared deviation of client gradients from their mean
(half the trace of the client-gradient covariance). The value needs only the
client gradients, so :func:`regularizer_value` computes no Hessian-vector
product. The gradient is assembled from client Hessian-vector products
applied to the per-client deviations:

    grad_r(x) = mean_i H_i d_i - mean_i H_i dbar,   d_i = g_i - gbar,  dbar = mean_i d_i

with all 2n products taken in one :meth:`FederatedProblem.hvps` call; it is
exact for quadratics. ``_fd_grad_of_r`` (central differences of r) is kept
only as the reference the tests compare against.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import UsageError
from .objectives import FederatedProblem
from .params import SeededStream, mean_reduce

__all__ = [
    "RegularizerReport",
    "SmoothnessEstimate",
    "regularizer_report",
    "regularizer_value",
    "surrogate_value",
    "surrogate_grad",
    "estimate_smoothness_constants",
]


@dataclass(frozen=True)
class RegularizerReport:
    r_value: float
    per_client_dev: np.ndarray  # n gradient-deviation norms
    grad_r: np.ndarray


def _deviations(grads):
    """Deviations of client gradients from their mean, their norms, and r."""
    gbar = mean_reduce(grads)
    devs = [g - gbar for g in grads]
    dev_norms = np.array([float(np.linalg.norm(d)) for d in devs])
    r_value = 0.0
    for dn in dev_norms:
        r_value += dn * dn
    r_value /= 2.0 * len(grads)
    return devs, dev_norms, r_value


def regularizer_value(grads) -> float:
    """r from the client gradients ``grads`` (an iterable of equal-length
    vectors, in client order); bit-equal to the ``r_value`` of
    :func:`regularizer_report` at the point they were taken."""
    return _deviations(list(grads))[2]


def regularizer_report(problem: FederatedProblem, x: np.ndarray,
                       grads=None) -> RegularizerReport:
    """Evaluate r(x), per-client deviation norms, and grad r(x).

    ``grads`` may pass the client gradients at ``x`` the caller already holds
    (``problem.client_grads(x)``); the report is then the same, bit for bit.
    """
    devs, dev_norms, r_value = _deviations(
        problem.client_grads(x) if grads is None else list(grads))
    n = problem.n
    H = problem.hvps([*range(n)] * 2, x, np.stack(devs + [mean_reduce(devs)] * n))
    return RegularizerReport(r_value, dev_norms, mean_reduce(H[:n]) - mean_reduce(H[n:]))


def _fd_grad_of_r(problem, x, rel_step=None):
    eps = rel_step or float(np.cbrt(np.finfo(np.float64).eps)) * (1.0 + float(np.linalg.norm(x)))
    g = np.empty_like(x)
    e = np.zeros_like(x)
    for j in range(x.shape[0]):
        e[j] = eps
        up = regularizer_value(problem.client_grads(x + e))
        dn = regularizer_value(problem.client_grads(x - e))
        g[j] = (up - dn) / (2.0 * eps)
        e[j] = 0.0
    return g


def surrogate_value(problem: FederatedProblem, x: np.ndarray, lam: float) -> float:
    """f(x) + lam * r(x)."""
    if lam < 0:
        raise UsageError("regularization weight must be >= 0")
    if lam == 0:
        return problem.value(x)
    return problem.value(x) + lam * regularizer_value(problem.client_grads(x))


def surrogate_grad(problem: FederatedProblem, x: np.ndarray, lam: float) -> np.ndarray:
    if lam < 0:
        raise UsageError("regularization weight must be >= 0")
    G = problem.client_grads(x)
    return mean_reduce(G) + lam * regularizer_report(problem, x, grads=G).grad_r


@dataclass(frozen=True)
class SmoothnessEstimate:
    """Probe maxima: lower bounds of the true constants.

    Consumers that need upper bounds (descent conditions) inflate these by a
    safety factor.
    """

    L1: float  # smoothness of the mean objective
    L2: float  # smoothness of r
    rho: float  # Hessian Lipschitz constant, max over clients
    probes: int


def estimate_smoothness_constants(problem: FederatedProblem, region_center: np.ndarray,
                                  radius: float, probes: int,
                                  stream: SeededStream) -> SmoothnessEstimate:
    """Max difference-quotients of grad f, grad r, and client HVPs over probe
    pairs drawn in the ball around ``region_center``."""
    if probes < 2:
        raise UsageError("need at least 2 probes")
    if radius <= 0:
        raise UsageError("radius must be > 0")
    rng = stream.generator()
    d = region_center.shape[0]
    pts = []
    for _ in range(probes):
        z = rng.standard_normal(d)
        z /= max(np.linalg.norm(z), 1e-300)
        pts.append(region_center + radius * float(rng.uniform() ** (1.0 / d)) * z)

    n_dirs = min(3, d) if d > 0 else 1
    dirs = []
    for _ in range(n_dirs):
        w = rng.standard_normal(d)
        dirs.append(w / max(np.linalg.norm(w), 1e-300))

    grads = []
    grad_rs = []
    for p in pts:
        G = problem.client_grads(p)
        grads.append(mean_reduce(G))
        grad_rs.append(regularizer_report(problem, p, grads=G).grad_r)
    idx, W = np.repeat(np.arange(problem.n), n_dirs), np.stack(dirs * problem.n)
    hvps = [problem.hvps(idx, p, W) for p in pts]  # rows (client, direction), client-major

    L1 = L2 = rho = 0.0
    for i in range(probes):
        for j in range(i + 1, probes):
            gap = float(np.linalg.norm(pts[i] - pts[j]))
            if gap < 1e-12:
                continue
            L1 = max(L1, float(np.linalg.norm(grads[i] - grads[j])) / gap)
            L2 = max(L2, float(np.linalg.norm(grad_rs[i] - grad_rs[j])) / gap)
            for diff in hvps[i] - hvps[j]:
                rho = max(rho, float(np.linalg.norm(diff)) / gap)
    return SmoothnessEstimate(L1, L2, rho, probes)

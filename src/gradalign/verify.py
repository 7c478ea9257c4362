"""Executable checks of the displaced-gradient expansion and the drift and
descent theorems.

Every asymptotic claim is realized as a measurable quantity: run the two
procedures being compared, subtract the predicted leading term, and fit the
residual's log-log slope against the scale parameter. Quadratic problems have
zero Taylor remainder, so several checks become exactness assertions there;
residuals below 1e-13 count as the float64 floor ("exactness regime").

Verdicts serialize to JSON lines with the schema
{"theorem_id", "fitted_slope", "expected_slope", "tolerance", "passed",
 "residuals": [[scale, residual], ...], "notes"}.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .algorithms import (
    fedavg_round,
    fedga_perstep_round,
    fedga_round,
    gradalign_round,
    linear_scaled_step,
    run_gd_sequence,
    run_sgd_sequence,
    run_surrogate_gd_sequence,
    scaffold_round,
)
from .datagen import MinibatchSchedule, gen_blobs, partition
from .errors import UsageError
from .objectives import (
    FederatedProblem,
    MLPClient,
    QuadraticClient,
    make_quadratic_problem,
    make_supervised_client,
)
from .params import SeededStream, mean_reduce
from .regularizer import estimate_smoothness_constants, regularizer_report

__all__ = [
    "TheoremVerdict",
    "DescentTrace",
    "fit_loglog_slope",
    "taylor_displaced_gradient_check",
    "expected_sgd_over_orderings",
    "theorem1_residual",
    "theorem2_residual",
    "theorem4_residual",
    "theorem5_residual",
    "linear_scaled_residual",
    "surrogate_gd_residual",
    "perstep_equivalence_check",
    "descent_condition_check",
    "descent_rate_check",
    "run_all_checks",
]

EXACT_FLOOR = 1e-13

THEOREM_IDS = ("lemma1", "thm1", "thm2", "thm3", "thm4", "thm5", "appB", "appD3", "appE")


@dataclass(frozen=True)
class TheoremVerdict:
    theorem_id: str
    residuals: tuple  # (scale, residual) pairs
    fitted_slope: float | None
    expected_slope: float | None
    tolerance: float | None
    passed: bool
    notes: str = ""

    def to_json_dict(self) -> dict:
        return {
            "theorem_id": self.theorem_id,
            "fitted_slope": self.fitted_slope,
            "expected_slope": self.expected_slope,
            "tolerance": self.tolerance,
            "passed": self.passed,
            "residuals": [[float(s), float(r)] for s, r in self.residuals],
            "notes": self.notes,
        }


def fit_loglog_slope(pairs) -> float | None:
    """Least-squares slope of log(residual) vs log(scale).

    Pairs with residual below the float64 floor are dropped; with fewer than
    two usable pairs there is nothing to fit and ``None`` signals the
    exactness regime.
    """
    pairs = [(float(s), float(r)) for s, r in pairs]
    if len(pairs) < 3:
        raise UsageError("need at least 3 (scale, residual) pairs")
    scales = [s for s, _ in pairs]
    if any(b >= a for a, b in zip(scales, scales[1:])):
        raise UsageError("scales must be strictly decreasing")
    if any(r < 0 for _, r in pairs):
        raise UsageError("residuals must be nonnegative")
    usable = [(s, r) for s, r in pairs if r >= EXACT_FLOOR]
    if len(usable) < 2:
        return None
    xs = np.log([s for s, _ in usable])
    ys = np.log([r for _, r in usable])
    xs = xs - xs.mean()
    return float((xs @ (ys - ys.mean())) / (xs @ xs))


def _slope_verdict(theorem_id, pairs, expected, tolerance, notes="", one_sided=False):
    slope = fit_loglog_slope(pairs)
    if slope is None:
        msg = "exactness regime: residuals at the float64 floor"
        return TheoremVerdict(theorem_id, tuple(pairs), None, expected, tolerance,
                              True, f"{notes}; {msg}".strip("; "))
    if one_sided:
        passed = slope >= expected - tolerance
    else:
        passed = abs(slope - expected) <= tolerance
    return TheoremVerdict(theorem_id, tuple(pairs), slope, expected, tolerance, passed, notes)


def _exact_verdict(theorem_id, pairs, floor, notes=""):
    passed = all(r <= floor for _, r in pairs)
    return TheoremVerdict(theorem_id, tuple(pairs), None, None, floor, passed, notes)


def _is_quadratic(problem) -> bool:
    return all(c.has_analytic_hvp for c in problem.clients)


# ---------------------------------------------------------------------------
# individual checks
# ---------------------------------------------------------------------------


def taylor_displaced_gradient_check(client, x, v, scales, expected_slope=2.0,
                                    tolerance=0.2) -> TheoremVerdict:
    """Residual of grad(x + s*v) against its first-order expansion in s.

    The claim is an upper bound (residual = O(s^2)), so the verdict is
    one-sided: a fitted slope above 2 means extra cancellation, not failure.
    """
    scales = list(scales)
    if any(s <= 0 for s in scales):
        raise UsageError("scales must be positive")
    base = client.grad(x)
    hv = client.hvp(x, v)
    pairs = []
    for s in scales:
        resid = float(np.linalg.norm(client.grad(x + s * v) - base - s * hv))
        pairs.append((s, resid))
    notes = "analytic hvp" if client.has_analytic_hvp else "finite-difference hvp"
    return _slope_verdict("lemma1", pairs, expected_slope, tolerance, notes,
                          one_sided=True)


def expected_sgd_over_orderings(objectives, x0, alpha, mode="enumerate",
                                samples=None, stream=None) -> np.ndarray:
    """Mean K-step endpoint over orderings of the multiset.

    ``enumerate`` averages all K! orderings (K <= 8); ``sample`` draws
    ``samples`` uniform permutations from ``stream``.
    """
    objectives = list(objectives)
    k = len(objectives)
    if mode == "enumerate":
        if k > 8:
            raise UsageError(
                f"enumerating {k}! orderings is infeasible; use mode='sample'"
            )
        orders = itertools.permutations(range(k))
    elif mode == "sample":
        if samples is None or stream is None:
            raise UsageError("sample mode needs `samples` and `stream`")
        rng = stream.generator()
        orders = [rng.permutation(k) for _ in range(samples)]
    else:
        raise UsageError(f"unknown mode {mode!r}")
    return mean_reduce([run_sgd_sequence(objectives, list(o), x0, alpha) for o in orders])


def theorem1_residual(objectives, x0, alphas, expected_slope=3.0, tolerance=0.2,
                      coeff=0.5) -> TheoremVerdict:
    """Expected K-step SGD-vs-GD drift against -(coeff*K*alpha^2) grad r_A."""
    objectives = list(objectives)
    k = len(objectives)
    prob = FederatedProblem(objectives)
    grad_r = regularizer_report(prob, x0).grad_r
    pairs = []
    ratios = []
    for a in alphas:
        e_sgd = expected_sgd_over_orderings(objectives, x0, a)
        gd = run_gd_sequence(prob, x0, a, k)
        pred = -(coeff * k * a * a) * grad_r
        pairs.append((a, float(np.linalg.norm(e_sgd - gd - pred))))
        pn = float(np.linalg.norm(pred))
        if pn > 0:
            ratios.append(float(np.linalg.norm(e_sgd - gd)) / pn)
    notes = f"leading-term ratio at smallest alpha: {ratios[-1]:.6f}" if ratios else ""
    return _slope_verdict("thm1", pairs, expected_slope, tolerance, notes)


def theorem2_residual(problem, x0, alpha, betas, expected_slope=2.0,
                      tolerance=0.2) -> TheoremVerdict:
    """One displaced-gradient round vs one GD step, minus -alpha*beta*grad r."""
    grad_r = regularizer_report(problem, x0).grad_r
    gd = run_gd_sequence(problem, x0, alpha, 1)
    pairs = []
    rel = 0.0
    for b in betas:
        ga = gradalign_round(problem, x0, alpha, b).server_params
        pred = -(alpha * b) * grad_r
        resid = float(np.linalg.norm(ga - gd - pred))
        pairs.append((b, resid))
        rel = max(rel, resid / max(float(np.linalg.norm(pred)), EXACT_FLOOR))
    if _is_quadratic(problem):
        passed = rel <= 1e-12
        return TheoremVerdict("thm2", tuple(pairs), None, None, 1e-12, passed,
                              f"quadratic exactness; max relative residual {rel:.3e}")
    return _slope_verdict("thm2", pairs, expected_slope, tolerance,
                          f"max relative residual {rel:.3e}")


def _coupled_schedules(problem, participants, batch_size, stream):
    if batch_size is None:
        return None
    return [
        MinibatchSchedule(problem.clients[i].data_size, batch_size, stream.derive("client", i))
        for i in participants
    ]


def theorem4_residual(problem, x0, K, alpha, betas, expected_slope=2.0,
                      tolerance=0.15) -> TheoremVerdict:
    """FedGA-vs-FedAvg drift against -(alpha*beta*K) grad r, full batches.

    On quadratics the beta^2 Taylor term vanishes identically (the drift is
    exactly linear in beta), so the verdict there is a leading-term ratio
    check; the slope fit needs a curved model.
    """
    grad_r = regularizer_report(problem, x0).grad_r
    fa = fedavg_round(problem, x0, alpha, K).server_params
    pairs = []
    ratios = []
    for b in betas:
        ga = fedga_round(problem, x0, alpha, b, K).server_params
        drift = ga - fa
        pred = -(alpha * b * K) * grad_r
        pairs.append((b, float(np.linalg.norm(drift - pred))))
        pn = float(np.linalg.norm(pred))
        if pn > 0:
            ratios.append(float(np.linalg.norm(drift)) / pn)
    if _is_quadratic(problem):
        worst = max((abs(r - 1.0) for r in ratios), default=0.0)
        return TheoremVerdict("thm4", tuple(pairs), None, None, 0.1, worst <= 0.1,
                              f"quadratic leading-term ratio check; max |ratio-1| {worst:.3e}")
    return _slope_verdict("thm4", pairs, expected_slope, tolerance,
                          "beta-order at fixed small alpha", one_sided=True)


def theorem5_residual(problem, x0, K, alphas, expected_slope=3.0,
                      tolerance=0.2) -> TheoremVerdict:
    """SCAFFOLD-vs-FedAvg drift against -(alpha^2 K(K-1)/2) grad r, full batches."""
    grad_r = regularizer_report(problem, x0).grad_r
    pairs = []
    for a in alphas:
        fa = fedavg_round(problem, x0, a, K).server_params
        sc = scaffold_round(problem, x0, a, K).server_params
        pred = -(a * a * K * (K - 1) / 2.0) * grad_r
        pairs.append((a, float(np.linalg.norm(sc - fa - pred))))
    if K == 1:
        # predicted drift is identically zero; the measured drift must sit at
        # the float64 floor
        scale = max(1.0, float(np.linalg.norm(x0)))
        return _exact_verdict("thm5", pairs, 1e-13 * scale,
                              "K=1: zero predicted drift")
    return _slope_verdict("thm5", pairs, expected_slope, tolerance)


def linear_scaled_residual(objectives, x0, alphas, expected_slope=3.0,
                           tolerance=0.2) -> TheoremVerdict:
    """Single linearly-scaled displaced update vs expected K-step SGD."""
    pairs = []
    for a in alphas:
        one = linear_scaled_step(objectives, x0, a)
        e_sgd = expected_sgd_over_orderings(objectives, x0, a)
        pairs.append((a, float(np.linalg.norm(one - e_sgd))))
    return _slope_verdict("appB", pairs, expected_slope, tolerance)


def surrogate_gd_residual(objectives, x0, K, alphas, expected_slope=3.0,
                          tolerance=0.2) -> TheoremVerdict:
    """K regularized-GD steps vs K plain GD steps minus (alpha^2 K/2) grad r."""
    prob = FederatedProblem(list(objectives))
    grad_r = regularizer_report(prob, x0).grad_r
    pairs = []
    for a in alphas:
        reg = run_surrogate_gd_sequence(prob, x0, a, K)
        gd = run_gd_sequence(prob, x0, a, K)
        pred = -(a * a * K / 2.0) * grad_r
        pairs.append((a, float(np.linalg.norm(reg - gd - pred))))
    return _slope_verdict("appD3", pairs, expected_slope, tolerance)


def perstep_equivalence_check(problem, x0, alpha, beta, K, batch_size, rounds,
                              stream, server_rtol=1e-10,
                              offset_tol=1e-12) -> TheoremVerdict:
    """Start-displaced vs per-step-displaced rounds along a shared trajectory.

    Each round both variants run from the same server state with coupled
    minibatch streams; the servers must agree to ``server_rtol`` relative and
    the per-client finals must differ by exactly beta*v_i (within
    ``offset_tol`` of the iterate scale). The trajectory advances with the
    start-displaced variant.
    """
    x = x0
    pairs = []
    worst_offset = 0.0
    part = list(range(problem.n))
    for r in range(1, rounds + 1):
        rs = stream.derive("round", r)
        sched_a = _coupled_schedules(problem, part, batch_size, rs)
        sched_b = _coupled_schedules(problem, part, batch_size, rs)
        res_a = fedga_round(problem, x, alpha, beta, K, sched_a)
        res_b = fedga_perstep_round(problem, x, alpha, beta, K, sched_b)
        grads0 = problem.client_grads(x)
        gbar = mean_reduce(grads0)
        scale = max(1.0, float(np.linalg.norm(res_a.server_params)))
        gap = float(np.linalg.norm(res_a.server_params - res_b.server_params)) / scale
        pairs.append((float(r), gap))
        for j, i in enumerate(part):
            offset = res_b.per_client_final[j] - res_a.per_client_final[j]
            expected = beta * (gbar - grads0[j])
            worst_offset = max(
                worst_offset,
                float(np.linalg.norm(offset - expected)) / scale,
            )
        x = res_a.server_params
    passed = all(g <= server_rtol for _, g in pairs) and worst_offset <= offset_tol
    notes = (
        f"max relative server gap {max(g for _, g in pairs):.3e}; "
        f"max final-offset error {worst_offset:.3e}"
    )
    return TheoremVerdict("appE", tuple(pairs), None, None, server_rtol, passed, notes)


# ---------------------------------------------------------------------------
# descent condition (theorem 3)
# ---------------------------------------------------------------------------


@dataclass
class DescentTrace:
    """Per-step record of the surrogate-descent run."""

    f_hat_before: list = field(default_factory=list)
    f_hat_after: list = field(default_factory=list)
    beta_used: list = field(default_factory=list)
    beta_bound: list = field(default_factory=list)
    grad_f_norm: list = field(default_factory=list)
    grad_r_norm: list = field(default_factory=list)
    step_sq: list = field(default_factory=list)
    notes: str = ""

    def __len__(self):
        return len(self.f_hat_before)


def _beta_upper_bound(alpha, smooth, grad_f_norm, grad_r_norm, r_value):
    """Admissible displacement size from the descent-condition cases.

    Returns +inf when every constraint is vacuous (e.g. zero Hessian
    Lipschitz constant, where any beta below L1/L2 descends).
    """
    bound = math.inf
    if smooth.L2 > 0:
        bound = min(bound, smooth.L1 / smooth.L2)
    if smooth.rho > 1e-12 and r_value > 1e-300:
        if grad_f_norm > 1e-12:
            bound = min(
                bound,
                math.sqrt(smooth.L1 * alpha * grad_f_norm / (smooth.rho * r_value)),
            )
        elif grad_r_norm > 1e-12:
            bound = min(
                bound,
                (alpha * smooth.L1 / (smooth.rho * (1.0 + alpha * smooth.L1)))
                * grad_r_norm
                / r_value,
            )
    return bound


def descent_condition_check(problem, x0, alpha, beta_policy, steps, stream,
                            safety=2.0, probes=8, radius=None,
                            enforce_alpha_bound=True):
    """Run displaced-gradient steps with beta capped by the admissible bound
    and verify the surrogate objective strictly decreases.

    Returns (DescentTrace, TheoremVerdict). The surrogate weight each step is
    that step's beta. Stops early (without failing) at a joint critical point.
    """
    if radius is None:
        radius = 0.5 * max(1.0, float(np.linalg.norm(x0)))
    smooth = estimate_smoothness_constants(problem, x0, radius, probes, stream)
    if enforce_alpha_bound and smooth.L1 > 0 and not alpha < 1.0 / (2.0 * smooth.L1 * safety):
        raise UsageError(
            f"alpha {alpha} violates the descent premise alpha < 1/(2*L1*safety) "
            f"= {1.0 / (2.0 * smooth.L1 * safety):.6g}"
        )
    trace = DescentTrace()
    x = x0
    increases = 0
    for t in range(steps):
        rep = regularizer_report(problem, x)
        gf = problem.grad(x)
        gfn = float(np.linalg.norm(gf))
        grn = float(np.linalg.norm(rep.grad_r))
        if gfn + grn <= 1e-9:
            trace.notes = "joint critical point reached"
            break
        bound = _beta_upper_bound(alpha, smooth, gfn, grn, rep.r_value)
        beta_t = min(beta_policy, bound / safety) if math.isfinite(bound) else beta_policy
        f0 = problem.value(x) + beta_t * rep.r_value
        x1 = gradalign_round(problem, x, alpha, beta_t, round_index=t).server_params
        rep1 = regularizer_report(problem, x1)
        f1 = problem.value(x1) + beta_t * rep1.r_value
        trace.f_hat_before.append(f0)
        trace.f_hat_after.append(f1)
        trace.beta_used.append(beta_t)
        trace.beta_bound.append(bound)
        trace.grad_f_norm.append(gfn)
        trace.grad_r_norm.append(grn)
        trace.step_sq.append(float(np.linalg.norm(x1 - x)) ** 2)
        if not f1 < f0:
            increases += 1
        x = x1
    passed = increases == 0
    notes = trace.notes or (
        f"{len(trace)} steps, {increases} non-decreasing; "
        f"L1={smooth.L1:.4g} L2={smooth.L2:.4g} rho={smooth.rho:.4g}"
    )
    pairs = tuple(
        (float(t), trace.f_hat_before[t] - trace.f_hat_after[t]) for t in range(len(trace))
    )
    return trace, TheoremVerdict("thm3", pairs, None, None, 0.0, passed, notes)


def descent_rate_check(trace: DescentTrace) -> TheoremVerdict:
    """Mean squared update size must not trend up after burn-in.

    A non-increasing running mean of ``|x_{t+1}-x_t|^2`` keeps
    T * mean bounded, which is the O(1/T) rate claim in executable form.
    """
    s = trace.step_sq
    if not s:
        return TheoremVerdict("thm3", (), None, None, None, True,
                              "empty trace: trivially bounded")
    t_total = len(s)
    burn = max(1, math.ceil(0.1 * t_total))
    csum = np.cumsum(s)
    means = csum / np.arange(1, t_total + 1)
    ok = True
    for t in range(burn, t_total):
        if means[t] > means[t - 1] * (1.0 + 1e-12):
            ok = False
            break
    pairs = tuple((float(t + 1), float(means[t])) for t in range(t_total))
    return TheoremVerdict("thm3", pairs, None, None, None, ok,
                          f"running mean of step^2 non-increasing after burn-in {burn}")


# ---------------------------------------------------------------------------
# built-in fixtures and the full suite
# ---------------------------------------------------------------------------


def fixture_pair_1d() -> FederatedProblem:
    """Two 1-D clients, f1 = x^2 and f2 = 0; r(x) = x^2/2 analytically."""
    return FederatedProblem([
        QuadraticClient([[2.0]], [0.0], client_id=0),
        QuadraticClient([[0.0]], [0.0], client_id=1),
    ])


def fixture_dyadic() -> FederatedProblem:
    """Two diagonal 2-D clients whose entries are small dyadic rationals.

    With dyadic step sizes every float64 operation in a round is exact, so
    identities that hold in real arithmetic hold bitwise.
    """
    return FederatedProblem([
        QuadraticClient(np.diag([2.0, 0.5]), [0.25, -0.5], client_id=0),
        QuadraticClient(np.diag([1.0, 1.0]), [-0.25, 0.5], client_id=1),
    ])


def fixture_random_quadratic(n=3, d=2, spread=0.5, seed=7) -> FederatedProblem:
    return FederatedProblem(
        make_quadratic_problem(n, d, spread, SeededStream(seed).derive("quad", 0))
    )


def fixture_logistic_problem(seed=11, n_clients=4, n_classes=4, per_class=20,
                             input_dim=3, sep=3.0, l2=0.0) -> FederatedProblem:
    stream = SeededStream(seed).derive("logistic", 0)
    ds = gen_blobs(n_classes, per_class, input_dim, sep, stream.derive("blobs", 0))
    part = partition(ds, n_clients, "label_shard", stream.derive("part", 0))
    clients = [
        make_supervised_client(ds.features[idx], ds.labels[idx], n_classes,
                               model="logistic", l2_decay=l2, client_id=i)
        for i, idx in enumerate(part.assignment)
    ]
    return FederatedProblem(clients)


def fixture_mlp_problem(seed=13, n_clients=3, n_classes=3, per_class=12,
                        input_dim=3, hidden=8) -> FederatedProblem:
    stream = SeededStream(seed).derive("mlp", 0)
    ds = gen_blobs(n_classes, per_class, input_dim, 3.0, stream.derive("blobs", 0))
    part = partition(ds, n_clients, "label_shard", stream.derive("part", 0))
    clients = [
        MLPClient(ds.features[idx], ds.labels[idx], n_classes, hidden=hidden, client_id=i)
        for i, idx in enumerate(part.assignment)
    ]
    return FederatedProblem(clients)


def mlp_start(problem, seed=17) -> np.ndarray:
    x = problem.clients[0].init_params(SeededStream(seed).derive("start", 0))
    return 0.5 * x


def run_all_checks(master_seed=0, sabotage=None) -> list[TheoremVerdict]:
    """All theorem checks on the built-in fixtures; >= 9 verdicts.

    ``sabotage="thm1"`` doubles the predicted theorem-1 coefficient, which a
    healthy implementation must report as a failure (mutation self-test).
    """
    root = SeededStream(master_seed)
    verdicts = []

    pair = fixture_pair_1d()
    dyadic = fixture_dyadic()
    quad = fixture_random_quadratic(seed=master_seed + 7)
    logi = fixture_logistic_problem(seed=master_seed + 11)
    mlp = fixture_mlp_problem(seed=master_seed + 13)

    xq = np.array([0.4, -0.3])
    x_mlp = mlp_start(mlp, seed=master_seed + 17)
    x_logi = np.zeros(logi.dim)

    # lemma 1: exact for quadratics, second order for the smooth MLP
    v = np.array([0.6, -0.2])
    verdicts.append(taylor_displaced_gradient_check(quad.clients[0], xq, v,
                                                    [0.5, 0.25, 0.125, 0.0625]))
    rng = root.derive("lemma1", 0).generator()
    vm = rng.standard_normal(mlp.dim)
    vm /= np.linalg.norm(vm)
    verdicts.append(taylor_displaced_gradient_check(mlp.clients[0], x_mlp, vm,
                                                    [1e-1, 5e-2, 2.5e-2, 1.25e-2]))

    # theorem 1: the 1-D fixture is exact; a random quadratic shows the cubic tail
    coeff = 1.0 if sabotage == "thm1" else 0.5
    verdicts.append(theorem1_residual(pair.clients, np.array([1.0]),
                                      [0.1, 0.05, 0.025], coeff=coeff))
    seq = [quad.clients[0], quad.clients[1], quad.clients[2]]
    verdicts.append(theorem1_residual(seq, xq, [1e-2, 5e-3, 2.5e-3], coeff=coeff))

    # theorem 2: exactness on quadratics, beta-order 2 on the MLP
    verdicts.append(theorem2_residual(quad, xq, 0.05, [0.1, 0.05, 0.025, 0.0125]))
    verdicts.append(theorem2_residual(mlp, x_mlp, 0.05, [0.4, 0.2, 0.1, 0.05]))

    # theorem 3: strict surrogate descent plus the rate check; a fixture whose
    # estimated smoothness rules out alpha fails the premise, not the run
    try:
        trace, v3 = descent_condition_check(logi, x_logi, 0.05, 1.0, 60,
                                            root.derive("descent", 0))
    except UsageError as exc:
        verdicts.append(TheoremVerdict("thm3", (), None, None, 0.0, False, str(exc)))
    else:
        verdicts.append(v3)
        verdicts.append(descent_rate_check(trace))

    # theorem 4: beta-order on the logistic problem (beta window keeps
    # beta*|v_i| small so the displacement expansion applies), ratio check on
    # quadratics
    verdicts.append(theorem4_residual(logi, x_logi + 0.1, 3, 1e-4, [0.04, 0.02, 0.01]))
    verdicts.append(theorem4_residual(quad, xq, 3, 1e-3, [0.2, 0.1, 0.05]))

    # theorem 5: alpha-order 3 on quadratics; K=1 drift is zero
    verdicts.append(theorem5_residual(quad, xq, 3, [2e-2, 1e-2, 5e-3, 2.5e-3]))
    verdicts.append(theorem5_residual(dyadic, np.array([1.0, -1.0]), 1,
                                      [0.125, 0.0625, 0.03125]))

    # single-update and regularized-GD approximations of expected SGD
    verdicts.append(linear_scaled_residual(seq, xq, [2e-2, 1e-2, 5e-3, 2.5e-3]))
    verdicts.append(surrogate_gd_residual(seq, xq, 3, [2e-2, 1e-2, 5e-3, 2.5e-3]))

    # start-displaced vs per-step-displaced rounds on a stochastic trajectory
    verdicts.append(perstep_equivalence_check(logi, x_logi, 0.05, 0.1, 5, 10,
                                              10, root.derive("appE", 0)))
    return verdicts

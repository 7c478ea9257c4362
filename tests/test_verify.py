import json
import sys

import numpy as np
import pytest

from gradalign.algorithms import run_gd_sequence
from gradalign.errors import UsageError
from gradalign.objectives import FederatedProblem, QuadraticClient
from gradalign.params import SeededStream
from gradalign.regularizer import regularizer_report
from gradalign.verify import (
    descent_condition_check,
    descent_rate_check,
    expected_sgd_over_orderings,
    fit_loglog_slope,
    fixture_pair_1d,
    linear_scaled_residual,
    run_all_checks,
    surrogate_gd_residual,
    taylor_displaced_gradient_check,
    theorem1_residual,
    theorem2_residual,
    theorem4_residual,
    theorem5_residual,
)

from conftest import make_homogeneous


# ---------------------------------------------------------------------------
# slope fitting
# ---------------------------------------------------------------------------


def test_fit_slope_pure_cubic():
    scales = [1e-1, 5e-2, 2.5e-2]
    pairs = [(s, 3.7 * s ** 3) for s in scales]
    assert fit_loglog_slope(pairs) == pytest.approx(3.0, abs=1e-9)


def test_fit_slope_exactness_regime():
    assert fit_loglog_slope([(0.1, 1e-15), (0.05, 1e-16), (0.025, 0.0)]) is None


def test_fit_slope_mixed_orders():
    scales = [1e-2, 5e-3, 2.5e-3]
    pairs = [(s, s ** 2 + s ** 3) for s in scales]
    slope = fit_loglog_slope(pairs)
    assert 2.0 <= slope <= 2.1


def test_fit_slope_input_contracts():
    with pytest.raises(UsageError):
        fit_loglog_slope([(0.1, 1.0), (0.05, 0.5)])
    with pytest.raises(UsageError):
        fit_loglog_slope([(0.1, 1.0), (0.2, 0.5), (0.05, 0.2)])


# ---------------------------------------------------------------------------
# lemma 1
# ---------------------------------------------------------------------------


def test_taylor_check_quadratic_exact(quad3):
    x = np.array([0.4, -0.3])
    v = np.array([0.6, -0.2])
    verdict = taylor_displaced_gradient_check(quad3.clients[0], x, v, [0.5, 0.25, 0.125])
    assert verdict.passed
    assert verdict.fitted_slope is None
    assert all(r < 1e-12 for _, r in verdict.residuals)


def test_taylor_check_zero_direction(quad3):
    x = np.array([0.4, -0.3])
    verdict = taylor_displaced_gradient_check(quad3.clients[0], x, np.zeros(2),
                                              [0.5, 0.25, 0.125])
    assert verdict.passed
    assert all(r == 0.0 for _, r in verdict.residuals)


def test_taylor_check_mlp_slope(mlp_problem, mlp_x0):
    rng = np.random.default_rng(1)
    v = rng.standard_normal(mlp_problem.dim)
    v /= np.linalg.norm(v)
    verdict = taylor_displaced_gradient_check(mlp_problem.clients[0], mlp_x0, v,
                                              [1e-1, 5e-2, 2.5e-2])
    assert verdict.passed
    assert verdict.fitted_slope == pytest.approx(2.0, abs=0.2)


# ---------------------------------------------------------------------------
# ordering enumeration
# ---------------------------------------------------------------------------


def test_enumeration_fixture_value(pair_1d):
    e = expected_sgd_over_orderings(pair_1d.clients, np.array([1.0]), 0.1)
    assert e[0] == pytest.approx(0.8, abs=1e-15)


def test_enumeration_homogeneous_equals_gd():
    prob = make_homogeneous()
    x0 = np.array([0.4, 0.1])
    e = expected_sgd_over_orderings(prob.clients, x0, 0.05)
    np.testing.assert_array_equal(e, run_gd_sequence(prob, x0, 0.05, 3))


def test_enumeration_repeated_multiset_is_gd(quad3):
    c = quad3.clients[0]
    x0 = np.array([0.4, -0.3])
    e = expected_sgd_over_orderings([c, c, c], x0, 0.05)
    np.testing.assert_array_equal(e, run_gd_sequence([c, c, c], x0, 0.05, 3))


def test_enumeration_invariant_under_relabeling(quad3):
    x0 = np.array([0.4, -0.3])
    a = expected_sgd_over_orderings(list(quad3.clients), x0, 0.05)
    b = expected_sgd_over_orderings(list(reversed(quad3.clients)), x0, 0.05)
    np.testing.assert_allclose(a, b, rtol=0, atol=1e-15)


def test_enumeration_k_limit():
    c = QuadraticClient([[1.0]], [0.0])
    with pytest.raises(UsageError, match="sample"):
        expected_sgd_over_orderings([c] * 9, np.array([1.0]), 0.1)


def test_sample_mode_approximates_enumeration(quad3):
    x0 = np.array([0.4, -0.3])
    exact = expected_sgd_over_orderings(list(quad3.clients), x0, 0.05)
    few = expected_sgd_over_orderings(list(quad3.clients), x0, 0.05,
                                      mode="sample", samples=40,
                                      stream=SeededStream(5))
    many = expected_sgd_over_orderings(list(quad3.clients), x0, 0.05,
                                       mode="sample", samples=4000,
                                       stream=SeededStream(5))
    assert np.linalg.norm(many - exact) < 1e-3
    assert np.linalg.norm(many - exact) < np.linalg.norm(few - exact)


# ---------------------------------------------------------------------------
# theorem residual checks
# ---------------------------------------------------------------------------


def test_theorem1_fixture_is_exact(pair_1d):
    verdict = theorem1_residual(pair_1d.clients, np.array([1.0]), [0.1, 0.05, 0.025])
    assert verdict.passed
    assert verdict.fitted_slope is None  # residuals at the floor
    assert all(r < 1e-14 for _, r in verdict.residuals)


def test_theorem1_homogeneous_both_sides_zero():
    prob = make_homogeneous()
    x0 = np.array([0.4, 0.1])
    e = expected_sgd_over_orderings(prob.clients, x0, 0.05)
    gd = run_gd_sequence(prob, x0, 0.05, 3)
    assert np.linalg.norm(e - gd) == 0.0
    assert np.linalg.norm(regularizer_report(prob, x0).grad_r) == 0.0


def test_theorem1_random_quadratic_slope(quad3):
    verdict = theorem1_residual(list(quad3.clients), np.array([0.4, -0.3]),
                                [1e-2, 5e-3, 2.5e-3])
    assert verdict.passed
    assert verdict.fitted_slope == pytest.approx(3.0, abs=0.2)


def test_theorem2_quadratic_exactness(quad3):
    verdict = theorem2_residual(quad3, np.array([0.4, -0.3]), 0.1, [0.1, 0.05, 0.025])
    assert verdict.passed
    assert "exact" in verdict.notes


def test_theorem2_beta0_both_sides_zero(quad3):
    x = np.array([0.4, -0.3])
    from gradalign.algorithms import gradalign_round

    ga = gradalign_round(quad3, x, 0.05, 0.0).server_params
    gd = run_gd_sequence(quad3, x, 0.05, 1)
    assert ga.tobytes() == gd.tobytes()


def test_theorem2_mlp_slope(mlp_problem, mlp_x0):
    verdict = theorem2_residual(mlp_problem, mlp_x0, 0.05, [0.4, 0.2, 0.1])
    assert verdict.passed
    assert verdict.fitted_slope == pytest.approx(2.0, abs=0.2)


def test_theorem4_logistic_beta_slope(logistic_problem):
    x = np.zeros(logistic_problem.dim) + 0.1
    verdict = theorem4_residual(logistic_problem, x, 3, 1e-4, [0.04, 0.02, 0.01])
    assert verdict.passed
    assert verdict.fitted_slope >= 2.0 - 0.15


def test_theorem4_quadratic_ratio(quad3):
    verdict = theorem4_residual(quad3, np.array([0.4, -0.3]), 3, 1e-3, [0.2, 0.1, 0.05])
    assert verdict.passed
    assert "ratio" in verdict.notes


def test_theorem5_alpha_slope(quad3):
    verdict = theorem5_residual(quad3, np.array([0.4, -0.3]), 3, [2e-2, 1e-2, 5e-3])
    assert verdict.passed
    assert verdict.fitted_slope == pytest.approx(3.0, abs=0.2)


def test_theorem5_k1_zero_drift(dyadic_problem):
    verdict = theorem5_residual(dyadic_problem, np.array([1.0, -1.0]), 1,
                                [0.125, 0.0625, 0.03125])
    assert verdict.passed
    assert all(r == 0.0 for _, r in verdict.residuals)


def test_theorem5_homogeneous_zero():
    prob = make_homogeneous()
    verdict = theorem5_residual(prob, np.array([0.4, 0.1]), 3, [2e-2, 1e-2, 5e-3])
    assert verdict.passed


def test_linear_scaled_slope(quad3):
    verdict = linear_scaled_residual(list(quad3.clients), np.array([0.4, -0.3]),
                                     [2e-2, 1e-2, 5e-3])
    assert verdict.passed
    assert verdict.fitted_slope == pytest.approx(3.0, abs=0.2)


def test_linear_scaled_fixture_exact(pair_1d):
    # f1 = x^2, f2 = 0 collapses every Taylor tail: the single scaled update
    # reproduces the ordering average exactly
    from gradalign.algorithms import linear_scaled_step

    x0 = np.array([1.0])
    one = linear_scaled_step(pair_1d.clients, x0, 0.05)
    e = expected_sgd_over_orderings(pair_1d.clients, x0, 0.05)
    assert abs(one[0] - e[0]) < 1e-15


def test_surrogate_gd_slope(quad3):
    verdict = surrogate_gd_residual(list(quad3.clients), np.array([0.4, -0.3]), 3,
                                    [2e-2, 1e-2, 5e-3])
    assert verdict.passed
    assert verdict.fitted_slope == pytest.approx(3.0, abs=0.2)


def test_surrogate_gd_fixture_alpha_squared_limit(pair_1d):
    # difference from plain GD scales as alpha^2 (slope 2 fit)
    from gradalign.algorithms import run_surrogate_gd_sequence

    x0 = np.array([1.0])
    pairs = []
    for a in (1e-2, 5e-3, 2.5e-3):
        diff = np.linalg.norm(run_surrogate_gd_sequence(pair_1d, x0, a, 2)
                              - run_gd_sequence(pair_1d, x0, a, 2))
        pairs.append((a, float(diff)))
    assert fit_loglog_slope(pairs) == pytest.approx(2.0, abs=0.1)


# ---------------------------------------------------------------------------
# descent checks
# ---------------------------------------------------------------------------


def test_descent_homogeneous_quadratic(stream):
    prob = make_homogeneous()
    trace, verdict = descent_condition_check(prob, np.array([2.0, -1.5]), 0.05, 0.5,
                                             40, stream)
    assert verdict.passed
    assert all(a < b for a, b in zip(trace.f_hat_after, trace.f_hat_before))


def test_descent_pair_fixture_100_steps(pair_1d, stream):
    trace, verdict = descent_condition_check(pair_1d, np.array([1.0]), 0.1, 10.0,
                                             100, stream)
    assert verdict.passed
    assert len(trace) == 100
    # policy beta is capped by the L1/L2 bound divided by the safety factor
    assert max(trace.beta_used) <= 10.0


def test_descent_joint_critical_point(pair_1d, stream):
    trace, verdict = descent_condition_check(pair_1d, np.array([0.0]), 0.1, 0.5,
                                             10, stream)
    assert verdict.passed
    assert "joint critical point" in verdict.notes
    assert len(trace) == 0


def test_descent_alpha_precondition(pair_1d, stream):
    with pytest.raises(UsageError, match="alpha"):
        descent_condition_check(pair_1d, np.array([1.0]), 5.0, 0.5, 10, stream)


def test_descent_beta_respects_bound(logistic_problem, stream):
    trace, verdict = descent_condition_check(logistic_problem,
                                             np.zeros(logistic_problem.dim),
                                             0.05, 5.0, 30, stream)
    assert verdict.passed
    for used, bound in zip(trace.beta_used, trace.beta_bound):
        assert used <= bound or not np.isfinite(bound)


def test_rate_check_convex_quadratic(pair_1d, stream):
    trace, _ = descent_condition_check(pair_1d, np.array([1.0]), 0.1, 0.4, 100, stream)
    verdict = descent_rate_check(trace)
    assert verdict.passed


def test_rate_check_empty_trace_trivially_bounded():
    from gradalign.verify import DescentTrace

    assert descent_rate_check(DescentTrace()).passed


def test_descent_divergent_alpha_aborts(pair_1d, stream):
    from gradalign.errors import DivergenceError

    with pytest.raises(DivergenceError):
        descent_condition_check(pair_1d, np.array([1.0]), 5.0, 0.0, 300, stream,
                                enforce_alpha_bound=False)


# ---------------------------------------------------------------------------
# suite assembly
# ---------------------------------------------------------------------------


def test_run_all_checks_passes_and_emits_nine_plus():
    verdicts = run_all_checks(master_seed=0)
    assert len(verdicts) >= 9
    ids = {v.theorem_id for v in verdicts}
    assert ids == {"lemma1", "thm1", "thm2", "thm3", "thm4", "thm5",
                   "appB", "appD3", "appE"}
    assert all(v.passed for v in verdicts)


def test_run_all_checks_deterministic():
    a = [v.to_json_dict() for v in run_all_checks(master_seed=3)]
    b = [v.to_json_dict() for v in run_all_checks(master_seed=3)]
    assert json.dumps(a) == json.dumps(b)


def test_sabotaged_coefficient_fails_thm1():
    verdicts = run_all_checks(master_seed=0, sabotage="thm1")
    failed = [v.theorem_id for v in verdicts if not v.passed]
    assert failed and set(failed) == {"thm1"}


def test_verdict_json_schema():
    verdicts = run_all_checks(master_seed=0)
    for v in verdicts:
        d = v.to_json_dict()
        assert list(d) == ["theorem_id", "fitted_slope", "expected_slope",
                           "tolerance", "passed", "residuals", "notes"]
        json.dumps(d)  # serializable


def test_no_caller_takes_client_gradients_twice_at_a_point(monkeypatch):
    """Each caller reuses the client gradients it holds: within one call of a
    function, no two ``client_grads`` calls land on the same problem and point.
    The caller is the nearest frame outside ``client_grads``, ``grad``,
    ``regularizer_report`` and comprehensions."""
    original = FederatedProblem.client_grads
    plumbing = {"client_grads", "grad", "regularizer_report"}
    frames = []  # kept alive so that frame ids stay unique
    seen = set()
    repeats = []

    def counted(self, x):
        f = sys._getframe(1)
        while f.f_code.co_name.startswith("<") or (
                f.f_code.co_name in plumbing and "gradalign" in f.f_code.co_filename):
            f = f.f_back
        frames.append(f)
        key = (id(f), id(self), x.tobytes())
        if key in seen:
            repeats.append(f.f_code.co_name)
        seen.add(key)
        return original(self, x)

    monkeypatch.setattr(FederatedProblem, "client_grads", counted)
    run_all_checks(master_seed=0)
    assert len(frames) > 100
    assert repeats == []


def test_no_caller_evaluates_the_objective_twice_at_a_point(monkeypatch):
    """Each caller reuses the objective values it holds: within one call of a
    function, no two ``FederatedProblem.value`` calls land on the same problem
    and point."""
    original = FederatedProblem.value
    frames = []  # kept alive so that frame ids stay unique
    seen = set()
    repeats = []

    def counted(self, x):
        f = sys._getframe(1)
        while f.f_code.co_name.startswith("<"):
            f = f.f_back
        frames.append(f)
        key = (id(f), id(self), x.tobytes())
        if key in seen:
            repeats.append(f.f_code.co_name)
        seen.add(key)
        return original(self, x)

    monkeypatch.setattr(FederatedProblem, "value", counted)
    run_all_checks(master_seed=0)
    assert len(frames) > 50
    assert repeats == []

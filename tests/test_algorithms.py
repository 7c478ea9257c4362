import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from gradalign.algorithms import (
    VARIANTS,
    AlgoConfig,
    expected_round,
    fedavg_round,
    fedga_perstep_round,
    fedga_round,
    fedprox_round,
    gradalign_round,
    largebatch_gd_round,
    linear_scaled_step,
    run_gd_sequence,
    run_sgd_sequence,
    run_round,
    run_surrogate_gd_sequence,
    scaffold_round,
)
from gradalign.datagen import MinibatchSchedule, gen_blobs, partition
from gradalign.errors import ConfigError, DivergenceError, UsageError
from gradalign.objectives import FederatedProblem, make_supervised_client
from gradalign.params import SeededStream, axpy, mean_reduce
from gradalign.regularizer import regularizer_report

from conftest import make_homogeneous


def coupled_schedules(problem, batch_size, seed, participants=None):
    part = participants if participants is not None else range(problem.n)
    stream = SeededStream(seed)
    return [
        MinibatchSchedule(problem.clients[i].data_size, batch_size,
                          stream.derive("client", i))
        for i in part
    ]


# ---------------------------------------------------------------------------
# sequence procedures
# ---------------------------------------------------------------------------


def test_sgd_sequence_hand_values(pair_1d):
    x0 = np.array([1.0])
    assert run_sgd_sequence(pair_1d.clients, [0, 1], x0, 0.1)[0] == pytest.approx(0.8, abs=1e-15)
    assert run_sgd_sequence(pair_1d.clients, [1, 0], x0, 0.1)[0] == pytest.approx(0.8, abs=1e-15)


def test_sgd_sequence_k1_is_gd_step(quad3):
    x0 = np.array([0.5, -0.5])
    one = run_sgd_sequence([quad3.clients[1]], [0], x0, 0.2)
    direct = x0 - 0.2 * quad3.clients[1].grad(x0)
    assert np.array_equal(one, direct)


def test_gd_sequence_hand_value(pair_1d):
    assert run_gd_sequence(pair_1d, np.array([1.0]), 0.1, 2)[0] == pytest.approx(0.81, abs=1e-15)


def test_gd_sequence_zero_alpha_is_identity(pair_1d):
    x0 = np.array([1.0])
    with pytest.raises(UsageError):
        run_gd_sequence(pair_1d, x0, 0.1, 0)
    assert np.array_equal(run_gd_sequence(pair_1d, x0, 0.0, 1), x0)


def test_gd_equals_sgd_for_homogeneous_clients():
    prob = make_homogeneous()
    x0 = np.array([0.4, 0.1])
    gd = run_gd_sequence(prob, x0, 0.05, 3)
    for order in ([0, 1, 2], [2, 1, 0], [1, 0, 2]):
        np.testing.assert_array_equal(run_sgd_sequence(prob.clients, order, x0, 0.05), gd)


def test_sgd_sequence_rejects_bad_order(pair_1d):
    with pytest.raises(UsageError):
        run_sgd_sequence(pair_1d.clients, [0, 0], np.array([1.0]), 0.1)


def test_surrogate_gd_homogeneous_equals_gd():
    prob = make_homogeneous()
    x0 = np.array([0.4, 0.1])
    a = run_surrogate_gd_sequence(prob, x0, 0.05, 3)
    b = run_gd_sequence(prob, x0, 0.05, 3)
    np.testing.assert_array_equal(a, b)


def test_surrogate_gd_tracks_sgd_regularization(pair_1d):
    # surrogate-GD minus GD approximates -(alpha^2 K/2) grad r with O(a^3) error
    x0 = np.array([1.0])
    rep = regularizer_report(pair_1d, x0)
    resid = []
    for a in (0.1, 0.05):
        diff = (run_surrogate_gd_sequence(pair_1d, x0, a, 2)
                - run_gd_sequence(pair_1d, x0, a, 2))
        pred = -(a * a * 2 / 2.0) * rep.grad_r
        resid.append(float(np.linalg.norm(diff - pred)))
    assert resid[0] < 5e-3
    assert resid[0] / resid[1] == pytest.approx(8.0, rel=0.15)


def test_linear_scaled_k1_is_gd(quad3):
    x0 = np.array([0.5, -0.2])
    one = linear_scaled_step([quad3.clients[0]], x0, 0.1)
    np.testing.assert_array_equal(one, x0 - 0.1 * quad3.clients[0].grad(x0))


def test_linear_scaled_homogeneous_formula():
    prob = make_homogeneous(n=2)
    x0 = np.array([0.4, 0.1])
    a = 0.05
    got = linear_scaled_step(prob.clients, x0, a)
    g = prob.clients[0].grad(x0)
    inner = x0 - (a / 2.0) * g
    expected = x0 - 2 * a * prob.clients[0].grad(inner)
    np.testing.assert_allclose(got, expected, rtol=0, atol=1e-16)


# ---------------------------------------------------------------------------
# round procedures: fixture values and structure
# ---------------------------------------------------------------------------


def test_gradalign_fixture_round(pair_1d):
    res = gradalign_round(pair_1d, np.array([1.0]), 0.1, 0.1)
    assert res.per_client_final[0][0] == pytest.approx(0.78, abs=1e-15)
    assert res.per_client_final[1][0] == pytest.approx(1.0, abs=1e-15)
    assert res.server_params[0] == pytest.approx(0.89, abs=1e-15)
    assert res.comm_rounds_used == 2
    gd = run_gd_sequence(pair_1d, np.array([1.0]), 0.1, 1)
    rep = regularizer_report(pair_1d, np.array([1.0]))
    assert res.server_params[0] - gd[0] == pytest.approx(-0.1 * 0.1 * rep.grad_r[0], abs=1e-15)


def test_gradalign_homogeneous_equals_gd_any_beta():
    prob = make_homogeneous()
    x0 = np.array([0.4, 0.1])
    gd = run_gd_sequence(prob, x0, 0.05, 1)
    for beta in (0.0, 0.3, 2.0):
        res = gradalign_round(prob, x0, 0.05, beta)
        np.testing.assert_array_equal(res.server_params, gd)


def test_round_result_server_is_mean_of_finals(quad3):
    res = fedavg_round(quad3, np.array([0.4, -0.3]), 0.05, 3)
    np.testing.assert_array_equal(res.server_params, mean_reduce(list(res.per_client_final)))


def test_comm_round_accounting(quad3):
    x = np.array([0.1, 0.1])
    assert fedavg_round(quad3, x, 0.01, 2).comm_rounds_used == 1
    assert fedprox_round(quad3, x, 0.01, 2, 0.1).comm_rounds_used == 1
    assert largebatch_gd_round(quad3, x, 0.01).comm_rounds_used == 1
    assert gradalign_round(quad3, x, 0.01, 0.1).comm_rounds_used == 2
    assert fedga_round(quad3, x, 0.01, 0.1, 2).comm_rounds_used == 2
    assert fedga_perstep_round(quad3, x, 0.01, 0.1, 2).comm_rounds_used == 2
    assert scaffold_round(quad3, x, 0.01, 2).comm_rounds_used == 2


def test_fedavg_single_client_is_sgd(logistic_problem):
    sub = FederatedProblem([logistic_problem.clients[0]])
    x = np.zeros(sub.dim)
    sched = coupled_schedules(sub, 5, seed=1)
    res = fedavg_round(sub, x, 0.1, 4, sched)
    sched2 = coupled_schedules(sub, 5, seed=1)
    y = x
    for k in range(4):
        y = y - 0.1 * sub.clients[0].stoch_grad(y, sched2[0].next_batch())
    np.testing.assert_array_equal(res.server_params, y)


def test_fedavg_homogeneous_full_batch_equals_gd():
    prob = make_homogeneous()
    x0 = np.array([0.4, 0.1])
    res = fedavg_round(prob, x0, 0.05, 4)
    np.testing.assert_array_equal(res.server_params, run_gd_sequence(prob, x0, 0.05, 4))


def test_fedavg_k1_full_is_largebatch_gd(quad3):
    x = np.array([0.4, -0.3])
    a = fedavg_round(quad3, x, 0.08, 1)
    b = largebatch_gd_round(quad3, x, 0.08)
    assert a.server_params.tobytes() == b.server_params.tobytes()


def test_server_is_mean_of_finals_for_averaging_rounds(quad3):
    x = np.array([0.4, -0.3])
    results = [
        fedavg_round(quad3, x, 0.05, 3),
        fedga_round(quad3, x, 0.05, 0.1, 3),
        fedga_perstep_round(quad3, x, 0.05, 0.1, 3),
        scaffold_round(quad3, x, 0.05, 3),
        fedprox_round(quad3, x, 0.05, 3, 0.2),
        gradalign_round(quad3, x, 0.05, 0.1),
        largebatch_gd_round(quad3, x, 0.05),
    ]
    for res in results:
        assert res.server_params.tobytes() == mean_reduce(list(res.per_client_final)).tobytes()


# ---------------------------------------------------------------------------
# reduction lattice (acceptance criterion 6 material)
# ---------------------------------------------------------------------------


def test_lattice_fedga_beta0_is_fedavg(logistic_problem):
    x = 0.1 * np.ones(logistic_problem.dim)
    a = fedga_round(logistic_problem, x, 0.05, 0.0, 3, coupled_schedules(logistic_problem, 7, 5))
    b = fedavg_round(logistic_problem, x, 0.05, 3, coupled_schedules(logistic_problem, 7, 5))
    assert a.server_params.tobytes() == b.server_params.tobytes()
    for fa, fb in zip(a.per_client_final, b.per_client_final):
        assert fa.tobytes() == fb.tobytes()


def test_lattice_fedprox_mu0_is_fedavg(logistic_problem):
    x = 0.1 * np.ones(logistic_problem.dim)
    a = fedprox_round(logistic_problem, x, 0.05, 3, 0.0, coupled_schedules(logistic_problem, 7, 5))
    b = fedavg_round(logistic_problem, x, 0.05, 3, coupled_schedules(logistic_problem, 7, 5))
    assert a.server_params.tobytes() == b.server_params.tobytes()


def test_lattice_gradalign_beta0_is_largebatch(quad3):
    x = np.array([0.4, -0.3])
    a = gradalign_round(quad3, x, 0.07, 0.0)
    b = largebatch_gd_round(quad3, x, 0.07)
    assert a.server_params.tobytes() == b.server_params.tobytes()


def test_lattice_fedga_k1_full_is_gradalign_dyadic(dyadic_problem):
    x = np.array([1.0, -1.0])
    a = fedga_round(dyadic_problem, x, 0.125, 0.0625, 1)
    b = gradalign_round(dyadic_problem, x, 0.125, 0.0625)
    assert a.server_params.tobytes() == b.server_params.tobytes()


def test_lattice_fedga_k1_full_close_to_gradalign_generic(quad3):
    x = np.array([0.4, -0.3])
    a = fedga_round(quad3, x, 0.037, 0.021, 1)
    b = gradalign_round(quad3, x, 0.037, 0.021)
    gap = np.linalg.norm(a.server_params - b.server_params)
    assert gap <= 1e-14 * max(1.0, np.linalg.norm(b.server_params))


def test_lattice_scaffold_k1_full_is_gd(quad3, dyadic_problem):
    for prob, x in ((quad3, np.array([0.4, -0.3])), (dyadic_problem, np.array([1.0, -1.0]))):
        res = scaffold_round(prob, x, 0.05, 1)
        gd = run_gd_sequence(prob, x, 0.05, 1)
        assert res.server_params.tobytes() == gd.tobytes()
        for f in res.per_client_final:
            assert f.tobytes() == gd.tobytes()


def test_scaffold_homogeneous_equals_fedavg():
    prob = make_homogeneous()
    x0 = np.array([0.4, 0.1])
    a = scaffold_round(prob, x0, 0.05, 4)
    b = fedavg_round(prob, x0, 0.05, 4)
    np.testing.assert_allclose(a.server_params, b.server_params, rtol=1e-12, atol=1e-15)


def test_fedga_homogeneous_is_fedavg():
    prob = make_homogeneous()
    x0 = np.array([0.4, 0.1])
    a = fedga_round(prob, x0, 0.05, 0.7, 4)
    b = fedavg_round(prob, x0, 0.05, 4)
    assert a.server_params.tobytes() == b.server_params.tobytes()


def test_fedprox_homogeneous_matches_replicated_prox_sgd():
    prob = make_homogeneous()
    x0 = np.array([0.4, 0.1])
    res = fedprox_round(prob, x0, 0.05, 3, 0.1)
    y = x0
    for _ in range(3):
        y = y - 0.05 * (prob.clients[0].grad(y) + 0.1 * (y - x0))
    for f in res.per_client_final:
        assert f.tobytes() == y.tobytes()


# ---------------------------------------------------------------------------
# per-step displacement variant
# ---------------------------------------------------------------------------


def test_perstep_beta0_is_fedavg(logistic_problem):
    x = 0.1 * np.ones(logistic_problem.dim)
    a = fedga_perstep_round(logistic_problem, x, 0.05, 0.0, 3,
                            coupled_schedules(logistic_problem, 7, 5))
    b = fedavg_round(logistic_problem, x, 0.05, 3, coupled_schedules(logistic_problem, 7, 5))
    assert a.server_params.tobytes() == b.server_params.tobytes()


def test_perstep_matches_fedga_server_and_offsets(logistic_problem):
    x = 0.05 * np.ones(logistic_problem.dim)
    alpha, beta, K = 0.05, 0.1, 5
    a = fedga_round(logistic_problem, x, alpha, beta, K,
                    coupled_schedules(logistic_problem, 10, 9))
    b = fedga_perstep_round(logistic_problem, x, alpha, beta, K,
                            coupled_schedules(logistic_problem, 10, 9))
    scale = max(1.0, float(np.linalg.norm(a.server_params)))
    assert np.linalg.norm(a.server_params - b.server_params) <= 1e-10 * scale
    grads = logistic_problem.client_grads(x)
    gbar = mean_reduce(grads)
    for j in range(logistic_problem.n):
        v = gbar - grads[j]
        offset = b.per_client_final[j] - a.per_client_final[j]
        assert np.linalg.norm(offset - beta * v) <= 1e-12 * scale


def test_k1_perstep_is_bitwise_gradalign(quad3):
    x = np.array([0.4, -0.3])
    a = fedga_perstep_round(quad3, x, 0.037, 0.021, 1)
    b = gradalign_round(quad3, x, 0.037, 0.021)
    assert a.server_params.tobytes() == b.server_params.tobytes()
    for fa, fb in zip(a.per_client_final, b.per_client_final):
        assert fa.tobytes() == fb.tobytes()


# ---------------------------------------------------------------------------
# drift directions and coefficient bridge
# ---------------------------------------------------------------------------


def test_scaffold_drift_exact_at_k2_on_quadratics(quad3):
    # with two local steps the cubic tail vanishes: drift == predicted term
    x = np.array([0.4, -0.3])
    rep = regularizer_report(quad3, x)
    for a in (0.02, 0.01):
        drift = (scaffold_round(quad3, x, a, 2).server_params
                 - fedavg_round(quad3, x, a, 2).server_params)
        pred = -(a * a) * rep.grad_r
        assert np.linalg.norm(drift - pred) <= 1e-14


def test_scaffold_drift_matches_theorem5_coefficient(quad3):
    x = np.array([0.4, -0.3])
    K = 3
    rep = regularizer_report(quad3, x)
    resid = []
    for a in (0.02, 0.01):
        drift = (scaffold_round(quad3, x, a, K).server_params
                 - fedavg_round(quad3, x, a, K).server_params)
        pred = -(a * a * K * (K - 1) / 2.0) * rep.grad_r
        resid.append(float(np.linalg.norm(drift - pred)))
    assert resid[0] / resid[1] == pytest.approx(8.0, rel=0.25)


def test_coefficient_bridge_fedga_equals_scaffold_to_cubic_order(quad3):
    # beta = alpha (K-1)/2 makes the leading drift terms coincide
    x = np.array([0.4, -0.3])
    K = 3
    gaps = []
    for a in (0.02, 0.01, 0.005):
        beta = a * (K - 1) / 2.0
        ga = fedga_round(quad3, x, a, beta, K).server_params
        sc = scaffold_round(quad3, x, a, K).server_params
        gaps.append((a, float(np.linalg.norm(ga - sc))))
    from gradalign.verify import fit_loglog_slope

    slope = fit_loglog_slope(gaps)
    assert slope == pytest.approx(3.0, abs=0.2)


def test_fedprox_large_mu_pins_iterate(quad3):
    x = np.array([0.4, -0.3])
    res = fedprox_round(quad3, x, 1e-7, 1, 1e6)
    for j, f in enumerate(res.per_client_final):
        step = np.linalg.norm(f - x)
        plain = np.linalg.norm(1e-7 * quad3.clients[j].grad(x))
        assert step < plain * 1.01


# ---------------------------------------------------------------------------
# expected_round
# ---------------------------------------------------------------------------


def test_expected_round_deterministic_repeats(quad3, stream):
    def rf(s):
        return fedavg_round(quad3, np.array([0.4, -0.3]), 0.05, 2)

    one = expected_round(rf, 1, stream)
    five = expected_round(rf, 5, stream)
    assert one.tobytes() == five.tobytes()


def test_expected_round_monte_carlo_convergence(logistic_problem):
    x = 0.1 * np.ones(logistic_problem.dim)
    det = fedavg_round(logistic_problem, x, 0.05, 4).server_params  # full batch

    def rf(s):
        scheds = [MinibatchSchedule(c.data_size, 5, s.derive("client", i))
                  for i, c in enumerate(logistic_problem.clients)]
        return fedavg_round(logistic_problem, x, 0.05, 4, scheds)

    root = SeededStream(77)
    err25 = np.linalg.norm(expected_round(rf, 25, root) - det)
    err400 = np.linalg.norm(expected_round(rf, 400, root) - det)
    assert err400 < err25 * 0.7  # ~ 1/sqrt(repeats)


def test_coupled_streams_share_draws(logistic_problem):
    a = coupled_schedules(logistic_problem, 5, seed=3)
    b = coupled_schedules(logistic_problem, 5, seed=3)
    for sa, sb in zip(a, b):
        for _ in range(4):
            assert np.array_equal(sa.next_batch(), sb.next_batch())


# ---------------------------------------------------------------------------
# partial participation, divergence, config validation
# ---------------------------------------------------------------------------


def test_partial_participation_uses_sampled_set_only(quad3):
    x = np.array([0.4, -0.3])
    res = gradalign_round(quad3, x, 0.05, 0.1, participants=[0, 2])
    assert res.participants == (0, 2)
    sub = quad3.subset([0, 2])
    direct = gradalign_round(sub, x, 0.05, 0.1)
    assert res.server_params.tobytes() == direct.server_params.tobytes()


def test_divergence_error_carries_context(pair_1d):
    with pytest.raises(DivergenceError) as exc:
        run_gd_sequence(pair_1d, np.array([1.0]), 4.0, 200, round_index=3)
    assert exc.value.round_index == 3
    assert exc.value.step is not None


def test_algo_config_validation_and_warnings():
    with pytest.raises(UsageError):
        AlgoConfig("nope", 0.1).validate()
    with pytest.raises(UsageError):
        AlgoConfig("fedavg", -0.1).validate()
    w = AlgoConfig("fedavg", 0.1, beta=0.5).validate()
    assert any("beta" in m for m in w)
    assert AlgoConfig("fedga", 0.1, beta=0.5).validate() == []
    beta_users = {"gradalign", "fedga", "fedga_perstep"}
    for variant in ("sgd_seq", "gd_seq", "surrogate_gd", "linear_scaled", "gradalign",
                    "fedavg", "fedga", "fedga_perstep", "scaffold", "fedprox",
                    "largebatch_gd"):
        w = AlgoConfig(variant, 0.1, beta=0.5, mu=0.3).validate()
        assert any("beta" in m for m in w) == (variant not in beta_users), variant
        assert any("mu" in m for m in w) == (variant != "fedprox"), variant


# ---------------------------------------------------------------------------
# lockstep engine vs the per-client reference
# ---------------------------------------------------------------------------

LOCAL_STEP_VARIANTS = sorted(name for name, v in VARIANTS.items() if v.sequence is None)


def reference_local_round(cfg, problem, x, schedules, participants):
    """The per-client engine: each participant runs its K steps alone, on the
    2-D kernels, before the next one starts. Returns (server, finals, norms)."""
    spec = VARIANTS[cfg.variant]
    part = sorted(participants)
    K = cfg.local_steps if spec.schedules else 1
    mu = cfg.mu if spec.uses_mu else 0.0
    alpha, beta = cfg.alpha, cfg.beta
    norms = np.zeros(len(part))
    if spec.anchor:
        grads0 = [problem.clients[i].grad(x) for i in part]
        gbar = mean_reduce(grads0)
        vs = [gbar - g for g in grads0]
        scale = abs(beta) if spec.displace else alpha
        norms = np.array([scale * float(np.linalg.norm(v)) for v in vs])
    shift = spec.displace if beta != 0.0 else None
    finals = []
    for j, i in enumerate(part):
        y = axpy(-beta, vs[j], x) if shift == "start" else x
        for _ in range(K):
            batch = schedules[j].next_batch() if schedules is not None else None
            point = axpy(-beta, vs[j], y) if shift == "step" else y
            g = problem.clients[i].stoch_grad(point, batch)
            if spec.anchor and not spec.displace:
                g = (g - grads0[j]) + gbar
            if mu != 0.0:
                g = g + mu * (y - x)
            y = axpy(-alpha, g, y)
        finals.append(y)
    return mean_reduce(finals), finals, norms


@settings(max_examples=80, deadline=None, derandomize=True)
@given(variant=st.sampled_from(LOCAL_STEP_VARIANTS), model=st.sampled_from(["logistic", "mlp"]),
       classes=st.integers(2, 4), per_class=st.integers(5, 14), dim=st.integers(1, 4),
       n_clients=st.integers(1, 5), mode=st.sampled_from(["iid", "label_shard"]),
       shards=st.integers(1, 2), batch=st.one_of(st.none(), st.integers(1, 9)),
       K=st.integers(1, 4), alpha=st.floats(0.01, 0.5), beta=st.sampled_from([0.0, 0.05, 0.3]),
       mu=st.sampled_from([0.0, 0.2]), l2=st.sampled_from([0.0, 0.01]),
       picks=st.lists(st.booleans(), min_size=5, max_size=5), seed=st.integers(0, 2**16))
def test_lockstep_engine_is_bitwise_the_per_client_reference(
        variant, model, classes, per_class, dim, n_clients, mode, shards, batch, K, alpha, beta,
        mu, l2, picks, seed):
    root = SeededStream(seed)
    ds = gen_blobs(classes, per_class, dim, 3.0, root.derive("blobs", 0))
    try:
        part = partition(ds, n_clients, mode, root.derive("partition", 0), shards)
    except ConfigError:
        assume(False)
    problem = FederatedProblem([
        make_supervised_client(ds.features[idx], ds.labels[idx], classes, model=model,
                               hidden=3, l2_decay=l2, client_id=i)
        for i, idx in enumerate(part.assignment)])
    participants = [i for i in range(n_clients) if picks[i]] or [n_clients - 1]
    x = 0.3 * root.derive("x", 0).generator().standard_normal(problem.dim)
    cfg = AlgoConfig(variant, alpha, beta, K, batch, mu)

    def schedules():
        if not VARIANTS[variant].schedules:
            return None
        return [MinibatchSchedule(problem.clients[i].data_size, batch,
                                  root.derive("client", i)) for i in participants]

    got = run_round(cfg, problem, x, schedules(), participants)
    server, finals, norms = reference_local_round(cfg, problem, x, schedules(), participants)
    assert got.server_params.tobytes() == server.tobytes()
    assert [f.tobytes() for f in got.per_client_final] == [f.tobytes() for f in finals]
    assert got.displacement_norms.tobytes() == norms.tobytes()


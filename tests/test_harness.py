import dataclasses
import json

import numpy as np
import pytest

from gradalign import harness
from gradalign.algorithms import run_gd_sequence
from gradalign.errors import ConfigError, DivergenceError
from gradalign.harness import (
    METRICS_FIELDS,
    build_problem,
    initial_params,
    parse_config,
    read_checkpoint,
    read_metrics,
    run_experiment,
    run_sweep,
    verify_suite,
    write_checkpoint,
)
from gradalign.objectives import FederatedProblem, QuadraticClient
from gradalign.params import SeededStream
from gradalign.regularizer import regularizer_report

BASE_CFG = """
problem.kind = blobs
problem.classes = 3
problem.per_class = 30
problem.dim = 4
problem.sep = 3
problem.clients = 3
problem.partition = label_shard
problem.model = logistic

algo.variant = fedavg
algo.alpha = 0.1
algo.local_steps = 4
algo.batch = 8

run.rounds = 20
run.eval_every = 5
run.master_seed = 9
"""


@pytest.fixture
def base_cfg(tmp_path):
    p = tmp_path / "base.cfg"
    p.write_text(BASE_CFG)
    return p


def write_cfg(tmp_path, text, name="exp.cfg"):
    p = tmp_path / name
    p.write_text(text)
    return p


# ---------------------------------------------------------------------------
# config parsing
# ---------------------------------------------------------------------------


def test_parse_minimal_config_fills_defaults(tmp_path):
    p = write_cfg(tmp_path, """
problem.kind = blobs
problem.classes = 2
problem.per_class = 10
problem.dim = 2
problem.sep = 3
problem.clients = 2
algo.variant = fedavg
algo.alpha = 0.1
run.rounds = 1
""")
    cfg = parse_config(p)
    assert cfg.run.eval_every == 10
    assert cfg.run.clients_per_round is None  # all clients
    assert cfg.run.master_seed == 0
    assert cfg.algo.batch_size is None
    assert cfg.problem.model == "logistic"
    assert cfg.warnings == ()


def test_parse_unknown_key_named(tmp_path):
    p = write_cfg(tmp_path, "algo.aplha = 0.1\n")
    with pytest.raises(ConfigError, match="aplha"):
        parse_config(p, purpose="verify")


def test_parse_type_error_names_key_and_line(tmp_path):
    p = write_cfg(tmp_path, "problem.kind = blobs\nalgo.alpha = fast\n")
    with pytest.raises(ConfigError, match="algo.alpha.*line 2"):
        parse_config(p, purpose="verify")


def test_parse_beta_with_fedavg_warns(base_cfg, tmp_path):
    text = BASE_CFG + "algo.beta = 0.5\n"
    cfg = parse_config(write_cfg(tmp_path, text))
    assert any("beta" in w for w in cfg.warnings)


def test_parse_missing_sections(tmp_path):
    p = write_cfg(tmp_path, "algo.variant = fedavg\nalgo.alpha = 0.1\n")
    with pytest.raises(ConfigError, match="problem"):
        parse_config(p, purpose="run")


def test_parse_missing_file():
    with pytest.raises(ConfigError, match="not found"):
        parse_config("/nonexistent/x.cfg")


def test_parse_csv_path_must_exist(tmp_path):
    p = write_cfg(tmp_path, "problem.kind = csv\nproblem.path = /no/such.csv\nproblem.clients = 2\n")
    with pytest.raises(ConfigError, match="path"):
        parse_config(p, purpose="verify")


def test_parse_sweep_exclusive(tmp_path):
    p = write_cfg(tmp_path, BASE_CFG + "sweep.beta = 0.1, 0.2\nsweep.mu = 0.1, 0.2\n")
    with pytest.raises(ConfigError, match="exclusive"):
        parse_config(p)


def test_parse_duplicate_key(tmp_path):
    p = write_cfg(tmp_path, "algo.alpha = 0.1\nalgo.alpha = 0.2\n")
    with pytest.raises(ConfigError, match="duplicate"):
        parse_config(p, purpose="verify")


def test_parse_bad_variant_is_config_error(tmp_path):
    p = write_cfg(tmp_path, BASE_CFG.replace("algo.variant = fedavg",
                                             "algo.variant = fancy"))
    with pytest.raises(ConfigError, match="variant"):
        parse_config(p)


# ---------------------------------------------------------------------------
# run_experiment
# ---------------------------------------------------------------------------


def test_single_client_one_round_is_gd_step(tmp_path):
    p = write_cfg(tmp_path, """
problem.kind = blobs
problem.classes = 2
problem.per_class = 20
problem.dim = 3
problem.sep = 3
problem.clients = 1
algo.variant = fedavg
algo.alpha = 0.2
algo.local_steps = 1
run.rounds = 1
run.master_seed = 4
""")
    cfg = parse_config(p)
    path = run_experiment(cfg, tmp_path / "out")
    final = read_checkpoint(tmp_path / "out" / f"{p.stem}-seed4.metrics.jsonl".replace(
        ".metrics.jsonl", ".ckpt"))
    root = SeededStream(4)
    inst = build_problem(cfg.problem, root.derive("data", 0))
    x0 = initial_params(inst, cfg.problem, root.derive("init", 0))
    expected = run_gd_sequence(inst.problem, x0, 0.2, 1)
    assert final.tobytes() == expected.tobytes()


def test_metrics_schema_and_monotone_accounting(base_cfg, tmp_path):
    cfg = parse_config(base_cfg)
    path = run_experiment(cfg, tmp_path / "out")
    recs = read_metrics(path)
    assert len(recs) == 4  # rounds 5, 10, 15, 20
    for r in recs:
        assert tuple(r.keys()) == METRICS_FIELDS
        assert 0.0 <= r["train_acc"] <= 1.0 and 0.0 <= r["test_acc"] <= 1.0
        assert r["grad_var"] >= 0.0
    comm = [r["comm_rounds_cum"] for r in recs]
    assert comm == sorted(comm) and len(set(comm)) == len(comm)
    assert recs[-1]["comm_rounds_cum"] == 20  # fedavg: 1 per round
    assert recs[-1]["updates_cum"] == 20 * 3 * 4  # R * m * K


@pytest.mark.parametrize("variant,comm_factor", [
    ("fedavg", 1), ("fedprox", 1), ("largebatch_gd", 1),
    ("fedga", 2), ("fedga_perstep", 2), ("scaffold", 2), ("gradalign", 2),
])
def test_comm_accounting_per_variant(tmp_path, variant, comm_factor):
    text = BASE_CFG.replace("algo.variant = fedavg", f"algo.variant = {variant}")
    if variant in ("fedga", "fedga_perstep", "gradalign"):
        text += "algo.beta = 0.1\n"
    text = text.replace("run.rounds = 20", "run.rounds = 6").replace(
        "run.eval_every = 5", "run.eval_every = 3")
    cfg = parse_config(write_cfg(tmp_path, text, f"{variant}.cfg"))
    path = run_experiment(cfg, tmp_path / "out")
    recs = read_metrics(path)
    assert recs[-1]["comm_rounds_cum"] == 6 * comm_factor


def test_byte_identical_reruns_and_thread_independence(base_cfg, tmp_path):
    cfg = parse_config(base_cfg)
    p1 = run_experiment(cfg, tmp_path / "a", run_name="r")
    p2 = run_experiment(cfg, tmp_path / "b", run_name="r")
    p3 = run_experiment(cfg, tmp_path / "c", run_name="r")
    b1, b2, b3 = (p.read_bytes() for p in (p1, p2, p3))
    assert b1 == b2 == b3
    assert b1  # nonempty


def test_seed_changes_metrics(base_cfg, tmp_path):
    cfg = parse_config(base_cfg)
    p1 = run_experiment(cfg, tmp_path / "a", run_name="r", seed=1)
    p2 = run_experiment(cfg, tmp_path / "b", run_name="r", seed=2)
    assert p1.read_bytes() != p2.read_bytes()


def test_grad_var_matches_regularizer(tmp_path):
    # full participation, deterministic eval: grad_var == 2 r(x) over clients
    p = write_cfg(tmp_path, BASE_CFG.replace("run.rounds = 20", "run.rounds = 5"))
    cfg = parse_config(p)
    path = run_experiment(cfg, tmp_path / "out")
    recs = read_metrics(path)
    final = read_checkpoint(path.with_name(path.name.replace(".metrics.jsonl", ".ckpt")))
    root = SeededStream(9)
    inst = build_problem(cfg.problem, root.derive("data", 0))
    rep = regularizer_report(inst.problem, final)
    assert recs[-1]["grad_var"] == pytest.approx(2 * rep.r_value, rel=1e-12)


def test_divergence_preserves_partial_metrics(tmp_path):
    for variant in ("largebatch_gd", "sgd_seq"):
        p = write_cfg(tmp_path, BASE_CFG
                      .replace("algo.variant = fedavg", f"algo.variant = {variant}")
                      .replace("algo.alpha = 0.1", "algo.alpha = 1e9")
                      .replace("run.eval_every = 5", "run.eval_every = 1"), f"{variant}.cfg")
        cfg = parse_config(p)
        with pytest.raises(DivergenceError) as exc:
            run_experiment(cfg, tmp_path / "out")
        assert exc.value.round_index is not None
        lines = (tmp_path / "out" / f"{p.stem}-seed9.metrics.jsonl").read_text().splitlines()
        marker = json.loads(lines[-1])
        assert marker["truncated"] is True
        assert "error" in marker


def test_divergence_marker_reports_the_earliest_step(tmp_path, monkeypatch):
    # 1-D quadratics from x = 0: client 0 grows 1000x per step and passes the
    # 1e8 norm bound at step 3; client 1 starts at 1e4 and passes it at step 1
    quads = FederatedProblem([QuadraticClient([[1001.0]], [1.0], client_id=0),
                              QuadraticClient([[100001.0]], [1e4], client_id=1)])
    real_build = harness.build_problem

    def build_quadratics(spec, stream):
        return dataclasses.replace(real_build(spec, stream), problem=quads)

    monkeypatch.setattr(harness, "build_problem", build_quadratics)
    p = write_cfg(tmp_path, BASE_CFG.replace("algo.alpha = 0.1", "algo.alpha = 1.0")
                  .replace("algo.batch = 8", "algo.batch = full"))
    with pytest.raises(DivergenceError) as exc:
        run_experiment(parse_config(p), tmp_path / "out")
    assert exc.value.step == 1
    lines = (tmp_path / "out" / "exp-seed9.metrics.jsonl").read_text().splitlines()
    assert json.loads(lines[-1]) == {
        "truncated": True, "round": 1,
        "error": "fedavg diverged (round 1, step 1): iterate norm 1.000e+09"}


def test_partial_participation_sampling(tmp_path):
    p = write_cfg(tmp_path, BASE_CFG + "run.clients_per_round = 2\n")
    cfg = parse_config(p)
    path = run_experiment(cfg, tmp_path / "out")
    recs = read_metrics(path)
    assert recs[-1]["updates_cum"] == 20 * 2 * 4


def test_clients_per_round_validated(tmp_path):
    p = write_cfg(tmp_path, BASE_CFG + "run.clients_per_round = 7\n")
    with pytest.raises(ConfigError, match="clients_per_round"):
        parse_config(p)


def test_mlp_model_runs(tmp_path):
    p = write_cfg(tmp_path, BASE_CFG
                  .replace("problem.model = logistic",
                           "problem.model = mlp\nproblem.hidden = 6")
                  .replace("run.rounds = 20", "run.rounds = 3")
                  .replace("run.eval_every = 5", "run.eval_every = 3"))
    cfg = parse_config(p)
    recs = read_metrics(run_experiment(cfg, tmp_path / "out"))
    assert recs and np.isfinite(recs[-1]["train_loss"])


def test_csv_problem_end_to_end(tmp_path, stream):
    from gradalign.datagen import gen_blobs, save_csv

    ds = gen_blobs(3, 30, 4, 3.0, stream)
    csv_path = tmp_path / "data.csv"
    save_csv(ds, csv_path)
    p = write_cfg(tmp_path, f"""
problem.kind = csv
problem.path = {csv_path}
problem.clients = 3
problem.partition = label_shard
algo.variant = fedavg
algo.alpha = 0.1
algo.local_steps = 2
algo.batch = 8
run.rounds = 3
run.eval_every = 3
""")
    recs = read_metrics(run_experiment(parse_config(p), tmp_path / "out"))
    assert recs[-1]["test_acc"] > 0.5


# (comm_rounds_cum, updates_cum) after 4 rounds with m = 3 participants, K = 4
BOOKKEEPING = {
    "gd_seq": (4, 4 * 4), "surrogate_gd": (4, 4 * 4), "sgd_seq": (4, 4 * 3 * 4),
    "linear_scaled": (4, 4), "largebatch_gd": (4, 4), "gradalign": (8, 4 * 3),
    "fedavg": (4, 4 * 3 * 4), "fedprox": (4, 4 * 3 * 4), "fedga": (8, 4 * 3 * 4),
    "fedga_perstep": (8, 4 * 3 * 4), "scaffold": (8, 4 * 3 * 4),
}


@pytest.mark.parametrize("variant", list(BOOKKEEPING))
def test_sequence_variants_run(tmp_path, variant):
    text = (BASE_CFG.replace("algo.variant = fedavg", f"algo.variant = {variant}")
            .replace("run.rounds = 20", "run.rounds = 4")
            .replace("run.eval_every = 5", "run.eval_every = 2"))
    cfg = parse_config(write_cfg(tmp_path, text, f"{variant}.cfg"))
    recs = read_metrics(run_experiment(cfg, tmp_path / "out"))
    assert np.isfinite(recs[-1]["train_loss"])
    assert (recs[-1]["comm_rounds_cum"], recs[-1]["updates_cum"]) == BOOKKEEPING[variant]


# ---------------------------------------------------------------------------
# sweeps
# ---------------------------------------------------------------------------


def test_sweep_beta_zero_reproduces_fedavg(tmp_path):
    fedga_text = (BASE_CFG.replace("algo.variant = fedavg", "algo.variant = fedga")
                  + "sweep.beta = 0, 0.1\n")
    cfg = parse_config(write_cfg(tmp_path, fedga_text, "ga.cfg"), purpose="sweep")
    res = run_sweep(cfg, tmp_path / "out")
    assert res.errors == (None, None)
    fa = parse_config(write_cfg(tmp_path, BASE_CFG, "fa.cfg"))
    fa_path = run_experiment(fa, tmp_path / "out")
    ga0 = read_metrics(res.metrics_paths[0])
    fa_recs = read_metrics(fa_path)
    # identical trajectories; only the communication accounting differs
    for a, b in zip(ga0, fa_recs):
        for k in METRICS_FIELDS:
            if k == "comm_rounds_cum":
                assert a[k] == 2 * b[k]
            else:
                assert a[k] == b[k]


def test_sweep_summary_and_coupled_seeds(tmp_path):
    text = BASE_CFG + "sweep.mu = 0.0, 0.1, 1.0\n"
    text = text.replace("algo.variant = fedavg", "algo.variant = fedprox")
    cfg = parse_config(write_cfg(tmp_path, text), purpose="sweep")
    res = run_sweep(cfg, tmp_path / "out")
    assert len(res.values) == 3
    assert all(e is None for e in res.errors)
    assert all(a is not None for a in res.final_acc)


def test_sweep_records_divergence_and_continues(tmp_path):
    text = (BASE_CFG.replace("algo.variant = fedavg", "algo.variant = fedga")
            .replace("algo.alpha = 0.1", "algo.alpha = 0.1")
            + "sweep.beta = 0.1, 1e14\n")
    cfg = parse_config(write_cfg(tmp_path, text), purpose="sweep")
    res = run_sweep(cfg, tmp_path / "out")
    assert res.errors[0] is None
    assert res.errors[1] is not None
    assert res.final_acc[1] is None


def test_sweep_requires_values(base_cfg):
    with pytest.raises(ConfigError, match="sweep"):
        parse_config(base_cfg, purpose="sweep")


# ---------------------------------------------------------------------------
# verify suite
# ---------------------------------------------------------------------------


def test_verify_suite_writes_verdicts(tmp_path):
    path, ok = verify_suite(None, tmp_path)
    assert ok
    lines = path.read_text().splitlines()
    assert len(lines) >= 9
    ids = {json.loads(l)["theorem_id"] for l in lines}
    assert ids == {"lemma1", "thm1", "thm2", "thm3", "thm4", "thm5",
                   "appB", "appD3", "appE"}


def test_verify_suite_sabotage_fails(tmp_path):
    p = write_cfg(tmp_path, "verify.sabotage = thm1\n")
    cfg = parse_config(p, purpose="verify")
    _, ok = verify_suite(cfg, tmp_path)
    assert not ok


def test_verify_suite_with_configured_problem(tmp_path):
    p = write_cfg(tmp_path, """
problem.kind = blobs
problem.classes = 2
problem.per_class = 12
problem.dim = 2
problem.sep = 3
problem.clients = 2
""")
    cfg = parse_config(p, purpose="verify")
    path, ok = verify_suite(cfg, tmp_path)
    assert ok
    assert len(path.read_text().splitlines()) >= 11


# ---------------------------------------------------------------------------
# checkpoints
# ---------------------------------------------------------------------------


def test_checkpoint_round_trip(tmp_path):
    x = np.array([1.5, -2.25, 1e-300, 3e200])
    p = tmp_path / "m.ckpt"
    write_checkpoint(p, x)
    raw = p.read_bytes()
    assert raw[:5] == b"GALN1"
    assert int.from_bytes(raw[5:13], "little") == 4
    back = read_checkpoint(p)
    assert back.tobytes() == x.tobytes()


def test_checkpoint_bad_magic(tmp_path):
    p = tmp_path / "m.ckpt"
    p.write_bytes(b"NOPE!" + b"\x00" * 16)
    with pytest.raises(ConfigError, match="magic"):
        read_checkpoint(p)

import json
import warnings

import numpy as np
import pytest

from gradalign.cli import main
from gradalign.datagen import load_csv

RUN_CFG = """
problem.kind = blobs
problem.classes = 3
problem.per_class = 20
problem.dim = 3
problem.sep = 3
problem.clients = 3
problem.partition = label_shard
algo.variant = fedga
algo.beta = 0.1
algo.alpha = 0.1
algo.local_steps = 3
algo.batch = 8
run.rounds = 6
run.eval_every = 3
run.master_seed = 2
"""


def write(tmp_path, text, name="c.cfg"):
    p = tmp_path / name
    p.write_text(text)
    return p


def with_values(text, *lines):
    """``text`` with each ``key = value`` line set, replacing the key's old line."""
    for line in lines:
        key = line.split("=")[0].strip()
        kept = [old for old in text.splitlines() if old.split("=")[0].strip() != key]
        text = "\n".join(kept + [line]) + "\n"
    return text


def test_run_exit_zero_and_prints_path(tmp_path, capsys):
    cfg = write(tmp_path, RUN_CFG)
    rc = main(["run", str(cfg), "--out", str(tmp_path / "out")])
    assert rc == 0
    out = capsys.readouterr().out.strip()
    assert out.endswith(".metrics.jsonl")
    assert (tmp_path / "out" / "c-seed2.metrics.jsonl").exists()


def test_config_error_exit_2(tmp_path, capsys):
    cfg = write(tmp_path, "algo.aplha = 1\n")
    rc = main(["run", str(cfg)])
    assert rc == 2
    assert "aplha" in capsys.readouterr().err


def test_data_layer_config_error_exit_2(tmp_path, capsys):
    # gen-data draws blobs without a test split, so per_class = 1 is valid there
    cases = (("problem.sep = 3", "problem.sep = 0", ("run", "verify", "gen-data")),
             ("problem.per_class = 20", "problem.per_class = 1", ("run", "verify")))
    for good, bad, commands in cases:
        cfg = write(tmp_path, RUN_CFG.replace(good, bad))
        for command in commands:
            assert main([command, str(cfg), "--out", str(tmp_path / command), "--quiet"]) == 2
            assert "config error:" in capsys.readouterr().err


@pytest.mark.parametrize("lines", [
    ("algo.alpha = inf",), ("algo.beta = inf",), ("algo.beta = nan",), ("algo.mu = nan",),
    ("problem.sep = inf",), ("problem.sep = nan",), ("problem.l2 = nan",), ("problem.l2 = -1",),
    ("problem.model = mlp", "problem.hidden = -2"), ("problem.model = mlp", "problem.hidden = 0"),
], ids=lambda lines: lines[-1])
def test_invalid_config_value_exit_2(tmp_path, capsys, lines):
    cfg = write(tmp_path, with_values(RUN_CFG, *lines))
    assert main(["run", str(cfg), "--out", str(tmp_path / "out"), "--quiet"]) == 2
    assert "config error:" in capsys.readouterr().err


@pytest.mark.parametrize("case", ["huge_l2", "huge_features", "non_finite_gradient"])
def test_overflow_exits_3_with_marker_and_no_numpy_warning(tmp_path, capsys, case):
    lines = {"huge_l2": ["problem.l2 = 1e308"],
             "huge_features": ["problem.kind = csv", f"problem.path = {tmp_path / 'big.csv'}"],
             # steps too small to pass the norm guard before l2 * y overflows
             "non_finite_gradient": ["problem.l2 = 1e308", "algo.alpha = 1e-300"]}[case]
    rng = np.random.default_rng(0)
    (tmp_path / "big.csv").write_text("".join(
        ",".join([str(c)] + [repr(float(v)) for v in 1e200 * (rng.standard_normal(3) + 3 * c)])
        + "\n" for c in range(3) for _ in range(20)))
    cfg = write(tmp_path, with_values(RUN_CFG, *lines))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = main(["run", str(cfg), "--out", str(tmp_path / "out"), "--quiet"])
    assert rc == 3
    assert "diverged" in capsys.readouterr().err
    marker = json.loads((tmp_path / "out" / "c-seed2.metrics.jsonl").read_text().splitlines()[-1])
    assert marker["truncated"] is True and marker["round"] == 1
    if case == "non_finite_gradient":
        assert "non-finite gradient from client" in marker["error"]


def test_divergence_exit_3(tmp_path, capsys):
    cfg = write(tmp_path, RUN_CFG.replace("algo.alpha = 0.1", "algo.alpha = 1e12")
                .replace("algo.variant = fedga", "algo.variant = largebatch_gd"))
    rc = main(["run", str(cfg), "--out", str(tmp_path / "out"), "--quiet"])
    assert rc == 3
    assert "diverged" in capsys.readouterr().err


def test_verify_exit_0_and_4(tmp_path):
    assert main(["verify", "--out", str(tmp_path / "v"), "--quiet"]) == 0
    assert (tmp_path / "v" / "verdicts.jsonl").exists()
    bad = write(tmp_path, "verify.sabotage = thm1\n", "sab.cfg")
    assert main(["verify", str(bad), "--out", str(tmp_path / "v2"), "--quiet"]) == 4


def test_verify_descent_premise_violation_is_a_failed_verdict(tmp_path):
    # at master seed 4 the logistic fixture's smoothness estimate rules out alpha 0.05
    assert main(["verify", "--out", str(tmp_path), "--quiet", "--seed", "4"]) == 4
    verdicts = map(json.loads, (tmp_path / "verdicts.jsonl").read_text().splitlines())
    thm3 = [v for v in verdicts if v["theorem_id"] == "thm3"]
    assert len(thm3) == 1
    assert not thm3[0]["passed"]
    assert "violates the descent premise" in thm3[0]["notes"]


def test_seed_override_changes_output(tmp_path):
    cfg = write(tmp_path, RUN_CFG)
    main(["run", str(cfg), "--out", str(tmp_path / "a"), "--quiet", "--seed", "7"])
    main(["run", str(cfg), "--out", str(tmp_path / "b"), "--quiet", "--seed", "7"])
    a = (tmp_path / "a" / "c-seed7.metrics.jsonl").read_bytes()
    b = (tmp_path / "b" / "c-seed7.metrics.jsonl").read_bytes()
    assert a == b
    main(["run", str(cfg), "--out", str(tmp_path / "d"), "--quiet"])
    d = (tmp_path / "d" / "c-seed2.metrics.jsonl").read_bytes()
    assert a != d


def test_verify_seed_flag_overrides_config_seed(tmp_path):
    assert main(["verify", "--out", str(tmp_path / "flag"), "--quiet", "--seed", "3"]) == 0
    seeded = write(tmp_path, "run.rounds = 1\nrun.master_seed = 3\n", "seed3.cfg")
    assert main(["verify", str(seeded), "--out", str(tmp_path / "cfg"), "--quiet"]) == 0
    assert main(["verify", "--out", str(tmp_path / "default"), "--quiet"]) == 0
    flag, cfg, default = ((tmp_path / d / "verdicts.jsonl").read_bytes()
                          for d in ("flag", "cfg", "default"))
    assert flag == cfg
    assert flag != default


def test_threads_flag_keeps_bytes(tmp_path):
    cfg = write(tmp_path, RUN_CFG)
    main(["run", str(cfg), "--out", str(tmp_path / "t1"), "--quiet", "--threads", "1"])
    main(["run", str(cfg), "--out", str(tmp_path / "t4"), "--quiet", "--threads", "4"])
    a = (tmp_path / "t1" / "c-seed2.metrics.jsonl").read_bytes()
    b = (tmp_path / "t4" / "c-seed2.metrics.jsonl").read_bytes()
    assert a == b


def test_sweep_command(tmp_path, capsys):
    cfg = write(tmp_path, RUN_CFG + "sweep.beta = 0.01, 0.1\n")
    rc = main(["sweep", str(cfg), "--out", str(tmp_path / "s")])
    assert rc == 0
    out = capsys.readouterr().out
    assert "final_acc" in out
    assert (tmp_path / "s" / "c-beta0.01-seed2.metrics.jsonl").exists()
    assert (tmp_path / "s" / "c-beta0.1-seed2.metrics.jsonl").exists()


def test_gen_data_writes_loadable_csv(tmp_path):
    cfg = write(tmp_path, """
problem.kind = blobs
problem.classes = 4
problem.per_class = 5
problem.dim = 3
problem.sep = 2
problem.clients = 2
""", "blob.cfg")
    rc = main(["gen-data", str(cfg), "--out", str(tmp_path / "g"), "--quiet"])
    assert rc == 0
    ds = load_csv(tmp_path / "g" / "blob.csv")
    assert ds.n == 20 and ds.n_classes == 4


def test_warning_printed_for_ignored_field(tmp_path, capsys):
    cfg = write(tmp_path, RUN_CFG.replace("algo.variant = fedga", "algo.variant = fedavg"))
    rc = main(["run", str(cfg), "--out", str(tmp_path / "w")])
    assert rc == 0
    assert "beta" in capsys.readouterr().err

"""Experiment engine: config parsing, multi-round simulation with client
sampling, metric collection, sweeps, and the verification suite driver.

Configs are flat ``key = value`` text files with section prefixes
(``problem.``, ``algo.``, ``run.``, ``sweep.``, ``verify.``); unknown keys are
rejected. Metrics are JSON lines, one record per eval point, with exactly the
fields of :class:`MetricsRecord`. Identical config + seed always produces
byte-identical metrics. Variant facts come from ``algorithms.VARIANTS``.
"""

from __future__ import annotations

import dataclasses
import json
import math
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .algorithms import VARIANTS, AlgoConfig, run_round
from .datagen import MinibatchSchedule, gen_blobs, load_csv, partition, train_test_split
from .errors import ConfigError, DivergenceError, NumericError, UsageError
from .objectives import FederatedProblem, make_supervised_client
from .params import SeededStream
from .regularizer import regularizer_report
from . import verify as verify_mod

__all__ = [
    "ProblemSpec",
    "RunSpec",
    "SweepSpec",
    "ExperimentConfig",
    "MetricsRecord",
    "SweepResult",
    "parse_config",
    "build_problem",
    "run_experiment",
    "run_sweep",
    "verify_suite",
    "write_checkpoint",
    "read_checkpoint",
]

CHECKPOINT_MAGIC = b"GALN1"
TEST_FRACTION = 0.2  # fixed 80/20 split, test held at the server

METRICS_FIELDS = (
    "round",
    "comm_rounds_cum",
    "updates_cum",
    "train_loss",
    "train_acc",
    "test_loss",
    "test_acc",
    "grad_var",
    "dev_client0",
)


@dataclass(frozen=True)
class ProblemSpec:
    kind: str  # blobs | csv
    clients: int
    classes: int = 0
    per_class: int = 0
    dim: int = 0
    sep: float = 0.0
    path: str | None = None
    partition: str = "iid"
    classes_per_client: int = 1
    model: str = "logistic"
    hidden: int = 16
    l2: float = 0.0


@dataclass(frozen=True)
class RunSpec:
    rounds: int
    clients_per_round: int | None = None  # None -> all clients
    eval_every: int = 10
    master_seed: int = 0


@dataclass(frozen=True)
class SweepSpec:
    param: str  # beta | mu
    values: tuple


@dataclass(frozen=True)
class ExperimentConfig:
    problem: ProblemSpec | None
    algo: AlgoConfig | None
    run: RunSpec | None
    sweep: SweepSpec | None
    sabotage: str | None
    warnings: tuple
    source: str


@dataclass(frozen=True)
class MetricsRecord:
    round: int
    comm_rounds_cum: int
    updates_cum: int
    train_loss: float
    train_acc: float
    test_loss: float
    test_acc: float
    grad_var: float
    dev_client0: float

    def to_json(self) -> str:
        d = {k: getattr(self, k) for k in METRICS_FIELDS}
        return json.dumps(d, separators=(",", ":"))


# ---------------------------------------------------------------------------
# config parsing
# ---------------------------------------------------------------------------

_BOOLEANS = {"true": True, "false": False}


def _parse_scalar(raw, typ, key, lineno):
    try:
        if typ is int:
            return int(raw)
        if typ is float:
            return float(raw)
        if typ is str:
            return raw
        if typ == "batch":
            return None if raw.lower() == "full" else int(raw)
        if typ == "floats":
            return tuple(float(v) for v in raw.replace(",", " ").split())
    except ValueError:
        pass
    raise ConfigError(f"bad value for {key!r} at line {lineno}: {raw!r}")


_KEYS = {
    "problem.kind": str,
    "problem.clients": int,
    "problem.classes": int,
    "problem.per_class": int,
    "problem.dim": int,
    "problem.sep": float,
    "problem.path": str,
    "problem.partition": str,
    "problem.classes_per_client": int,
    "problem.model": str,
    "problem.hidden": int,
    "problem.l2": float,
    "algo.variant": str,
    "algo.alpha": float,
    "algo.beta": float,
    "algo.local_steps": int,
    "algo.batch": "batch",
    "algo.mu": float,
    "run.rounds": int,
    "run.clients_per_round": int,
    "run.eval_every": int,
    "run.master_seed": int,
    "sweep.beta": "floats",
    "sweep.mu": "floats",
    "verify.sabotage": str,
}


def parse_config(path, purpose: str = "run") -> ExperimentConfig:
    """Strict parse of a key=value config file.

    ``purpose`` controls which sections are required: "run"/"sweep" need
    problem+algo+run, "gen-data" needs a blobs problem, "verify" needs
    nothing. Unknown keys, type mismatches, and missing required keys raise
    :class:`ConfigError` naming the key (and line where applicable).
    """
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    values = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            text = line.split("#", 1)[0].strip()
            if not text:
                continue
            if "=" not in text:
                raise ConfigError(f"{path}: expected key = value at line {lineno}: {text!r}")
            key, raw = (part.strip() for part in text.split("=", 1))
            if key not in _KEYS:
                raise ConfigError(f"{path}: unknown key {key!r} at line {lineno}")
            if key in values:
                raise ConfigError(f"{path}: duplicate key {key!r} at line {lineno}")
            values[key] = (_parse_scalar(raw, _KEYS[key], key, lineno), lineno)

    def got(key, default=None):
        return values[key][0] if key in values else default

    warnings = []

    problem = None
    if any(k.startswith("problem.") for k in values):
        kind = got("problem.kind")
        if kind not in ("blobs", "csv"):
            raise ConfigError(f"problem.kind must be blobs or csv, got {kind!r}")
        if kind == "csv":
            p = got("problem.path")
            if not p:
                raise ConfigError("problem.path is required for kind=csv")
            if not Path(p).exists():
                raise ConfigError(f"problem.path does not exist: {p}")
        else:
            for req in ("problem.classes", "problem.per_class", "problem.dim", "problem.sep"):
                if req not in values:
                    raise ConfigError(f"missing required key {req!r} for kind=blobs")
        if "problem.clients" not in values:
            raise ConfigError("missing required key 'problem.clients'")
        mode = got("problem.partition", "iid")
        if mode not in ("iid", "label_shard"):
            raise ConfigError(f"problem.partition must be iid or label_shard, got {mode!r}")
        model = got("problem.model", "logistic")
        if model not in ("logistic", "mlp"):
            raise ConfigError(f"problem.model must be logistic or mlp, got {model!r}")
        for key in ("problem.sep", "problem.l2"):
            if not math.isfinite(got(key, 0.0)):
                raise ConfigError(f"{key} must be finite, got {got(key)!r}")
        if got("problem.l2", 0.0) < 0:
            raise ConfigError("problem.l2 must be >= 0")
        if got("problem.hidden", 16) < 1:
            raise ConfigError("problem.hidden must be >= 1")
        problem = ProblemSpec(
            kind=kind,
            clients=got("problem.clients"),
            classes=got("problem.classes", 0),
            per_class=got("problem.per_class", 0),
            dim=got("problem.dim", 0),
            sep=got("problem.sep", 0.0),
            path=got("problem.path"),
            partition=mode,
            classes_per_client=got("problem.classes_per_client", 1),
            model=model,
            hidden=got("problem.hidden", 16),
            l2=got("problem.l2", 0.0),
        )

    algo = None
    if any(k.startswith("algo.") for k in values):
        for req in ("algo.variant", "algo.alpha"):
            if req not in values:
                raise ConfigError(f"missing required key {req!r}")
        algo = AlgoConfig(
            variant=got("algo.variant"),
            alpha=got("algo.alpha"),
            beta=got("algo.beta", 0.0),
            local_steps=got("algo.local_steps", 1),
            batch_size=got("algo.batch", None),
            mu=got("algo.mu", 0.0),
        )
        try:
            warnings.extend(algo.validate())
        except UsageError as exc:
            raise ConfigError(str(exc)) from None

    run = None
    if any(k.startswith("run.") for k in values):
        if "run.rounds" not in values:
            raise ConfigError("missing required key 'run.rounds'")
        run = RunSpec(
            rounds=got("run.rounds"),
            clients_per_round=got("run.clients_per_round"),
            eval_every=got("run.eval_every", 10),
            master_seed=got("run.master_seed", 0),
        )
        if run.rounds < 1:
            raise ConfigError("run.rounds must be >= 1")
        if run.eval_every < 1:
            raise ConfigError("run.eval_every must be >= 1")
        if problem is not None and run.clients_per_round is not None:
            if not 1 <= run.clients_per_round <= problem.clients:
                raise ConfigError(
                    f"run.clients_per_round must be in [1, {problem.clients}]"
                )

    sweep = None
    if "sweep.beta" in values and "sweep.mu" in values:
        raise ConfigError("sweep.beta and sweep.mu are mutually exclusive")
    for param in ("beta", "mu"):
        key = f"sweep.{param}"
        if key in values:
            vals = got(key)
            if len(vals) < 2:
                raise ConfigError(f"{key} needs at least 2 values")
            sweep = SweepSpec(param, vals)

    if purpose in ("run", "sweep"):
        missing = [name for name, part in
                   (("problem.*", problem), ("algo.*", algo), ("run.*", run)) if part is None]
        if missing:
            raise ConfigError(f"{path}: missing required sections: {', '.join(missing)}")
        if purpose == "sweep" and sweep is None:
            raise ConfigError(f"{path}: sweep.* values are required for the sweep command")
    elif purpose == "gen-data":
        if problem is None or problem.kind != "blobs":
            raise ConfigError(f"{path}: gen-data needs a problem.kind=blobs section")

    return ExperimentConfig(
        problem=problem,
        algo=algo,
        run=run,
        sweep=sweep,
        sabotage=got("verify.sabotage"),
        warnings=tuple(warnings),
        source=str(path),
    )


# ---------------------------------------------------------------------------
# problem assembly and evaluation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ProblemInstance:
    problem: FederatedProblem
    train_features: np.ndarray
    train_labels: np.ndarray
    test_features: np.ndarray
    test_labels: np.ndarray
    n_classes: int
    l2: float


def build_problem(spec: ProblemSpec, stream: SeededStream) -> ProblemInstance:
    """Build the clients and the test split; a spec the data layer rejects
    (``sep = 0``, a class too small to split, ...) raises ConfigError."""
    try:
        if spec.kind == "blobs":
            ds = gen_blobs(spec.classes, spec.per_class, spec.dim, spec.sep,
                           stream.derive("blobs", 0))
        else:
            ds = load_csv(spec.path)
        train, test = train_test_split(ds, TEST_FRACTION, stream.derive("split", 0))
    except UsageError as exc:
        raise ConfigError(str(exc)) from None
    part = partition(train, spec.clients, spec.partition, stream.derive("partition", 0),
                     spec.classes_per_client)
    clients = [
        make_supervised_client(
            train.features[idx], train.labels[idx], train.n_classes,
            model=spec.model, hidden=spec.hidden, l2_decay=spec.l2, client_id=i,
        )
        for i, idx in enumerate(part.assignment)
    ]
    return ProblemInstance(
        problem=FederatedProblem(clients),
        train_features=train.features,
        train_labels=train.labels,
        test_features=test.features,
        test_labels=test.labels,
        n_classes=train.n_classes,
        l2=spec.l2,
    )


def initial_params(inst: ProblemInstance, spec: ProblemSpec, stream: SeededStream) -> np.ndarray:
    if spec.model == "mlp":
        return inst.problem.clients[0].init_params(stream)
    return np.zeros(inst.problem.dim)


def _loss_acc(client, x, X, y, l2):
    z = client.logits(x, X)
    zmax = z.max(axis=1, keepdims=True)
    lse = zmax[:, 0] + np.log(np.exp(z - zmax).sum(axis=1))
    rows = np.arange(X.shape[0])
    loss = float((lse - z[rows, y]).mean()) + 0.5 * l2 * float(x @ x)
    acc = float((np.argmax(z, axis=1) == y).mean())
    return loss, acc


def evaluate(inst: ProblemInstance, x: np.ndarray, participants) -> dict:
    ref = inst.problem.clients[0]
    train_loss, train_acc = _loss_acc(ref, x, inst.train_features, inst.train_labels, inst.l2)
    test_loss, test_acc = _loss_acc(ref, x, inst.test_features, inst.test_labels, inst.l2)
    rep = regularizer_report(inst.problem.subset(participants), x)
    dev0 = float(np.linalg.norm(inst.problem.grad(x) - inst.problem.clients[0].grad(x)))
    return {
        "train_loss": train_loss,
        "train_acc": train_acc,
        "test_loss": test_loss,
        "test_acc": test_acc,
        "grad_var": 2.0 * rep.r_value,
        "dev_client0": dev0,
    }


# ---------------------------------------------------------------------------
# experiment engine
# ---------------------------------------------------------------------------


def run_experiment(cfg: ExperimentConfig, out_dir, seed: int | None = None,
                   run_name: str | None = None, quiet: bool = True) -> Path:
    """Execute cfg.run.rounds rounds; return the metrics file path.

    Each round samples ``clients_per_round`` clients without replacement from
    a round-derived stream. On divergence the partial metrics file is kept,
    a truncation marker is appended, and the error is re-raised; any other
    NumericError mid-run (a non-finite gradient) is raised as a divergence of
    that round.
    """
    if cfg.problem is None or cfg.algo is None or cfg.run is None:
        raise ConfigError("run_experiment needs problem, algo, and run sections")
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    master_seed = cfg.run.master_seed if seed is None else seed
    name = run_name or f"{Path(cfg.source).stem or 'run'}-seed{master_seed}"
    metrics_path = out_dir / f"{name}.metrics.jsonl"
    ckpt_path = out_dir / f"{name}.ckpt"

    root = SeededStream(master_seed)
    inst = build_problem(cfg.problem, root.derive("data", 0))
    problem = inst.problem
    n = problem.n
    m = cfg.run.clients_per_round if cfg.run.clients_per_round is not None else n
    if not 1 <= m <= n:
        raise ConfigError(f"clients_per_round must be in [1, {n}], got {m}")
    x = initial_params(inst, cfg.problem, root.derive("init", 0))

    variant = VARIANTS[cfg.algo.variant]
    comm = 0
    updates = 0
    with open(metrics_path, "w", encoding="utf-8") as fh:
        try:
            for r in range(1, cfg.run.rounds + 1):
                rstream = root.derive("round", r)
                sampler = rstream.derive("sample", 0).generator()
                participants = sorted(int(i) for i in sampler.choice(n, size=m, replace=False))
                schedules = None
                if variant.schedules:
                    schedules = [
                        MinibatchSchedule(problem.clients[i].data_size, cfg.algo.batch_size,
                                          rstream.derive("client", i))
                        for i in participants
                    ]
                result = run_round(cfg.algo, problem, x, schedules, participants,
                                   round_index=r, stream=rstream)
                x = result.server_params
                comm += result.comm_rounds_used
                updates += variant.updates(m, cfg.algo.local_steps)
                if r % cfg.run.eval_every == 0 or r == cfg.run.rounds:
                    stats = evaluate(inst, x, participants)
                    record = MetricsRecord(round=r, comm_rounds_cum=comm,
                                           updates_cum=updates, **stats)
                    fh.write(record.to_json() + "\n")
        except NumericError as exc:
            err = exc if isinstance(exc, DivergenceError) else DivergenceError(
                f"{cfg.algo.variant} diverged (round {r}): {exc}",
                algorithm=cfg.algo.variant, round_index=r)
            fh.write(json.dumps(
                {"truncated": True, "round": err.round_index, "error": str(err)},
                separators=(",", ":")) + "\n")
            raise err
    write_checkpoint(ckpt_path, x)
    if not quiet:
        print(f"wrote {metrics_path}")
    return metrics_path


@dataclass(frozen=True)
class SweepResult:
    param: str
    values: tuple
    final_acc: tuple  # None for diverged runs
    best_acc: tuple
    metrics_paths: tuple
    errors: tuple


def read_metrics(path) -> list[dict]:
    records = []
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            records.append(json.loads(line))
    return records


def run_sweep(cfg: ExperimentConfig, out_dir, seed: int | None = None,
              quiet: bool = True) -> SweepResult:
    """One run per sweep value under identical master seeds (coupled)."""
    if cfg.sweep is None:
        raise ConfigError("config has no sweep.* values")
    base = Path(cfg.source).stem or "run"
    master_seed = cfg.run.master_seed if seed is None else seed
    finals, bests, paths, errors = [], [], [], []
    for value in cfg.sweep.values:
        algo = dataclasses.replace(cfg.algo, **{cfg.sweep.param: value})
        sub = dataclasses.replace(cfg, algo=algo)
        name = f"{base}-{cfg.sweep.param}{value:g}-seed{master_seed}"
        try:
            path = run_experiment(sub, out_dir, seed=master_seed, run_name=name, quiet=True)
            rows = [rec for rec in read_metrics(path) if "round" in rec]
            finals.append(rows[-1]["test_acc"] if rows else None)
            bests.append(max((rec["test_acc"] for rec in rows), default=None))
            errors.append(None)
        except DivergenceError as exc:
            path = Path(out_dir) / f"{name}.metrics.jsonl"
            finals.append(None)
            bests.append(None)
            errors.append(str(exc))
        paths.append(str(path))
    result = SweepResult(cfg.sweep.param, tuple(cfg.sweep.values), tuple(finals),
                         tuple(bests), tuple(paths), tuple(errors))
    if not quiet:
        print(f"{'value':>10}  {'final_acc':>10}  {'best_acc':>10}  metrics")
        for v, f, b, p, e in zip(result.values, result.final_acc, result.best_acc,
                                 result.metrics_paths, result.errors):
            if e is not None:
                print(f"{v:>10g}  {'diverged':>10}  {'-':>10}  {p}")
            else:
                print(f"{v:>10g}  {f:>10.4f}  {b:>10.4f}  {p}")
    return result


def verify_suite(cfg: ExperimentConfig | None, out_dir, quiet: bool = True,
                 seed: int | None = None):
    """Run every theorem check; write verdicts JSONL; return (path, all_passed).
    ``seed`` overrides ``run.master_seed`` (default 0)."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    master_seed = seed
    if master_seed is None:
        master_seed = cfg.run.master_seed if cfg is not None and cfg.run is not None else 0
    sabotage = cfg.sabotage if cfg is not None else None
    verdicts = verify_mod.run_all_checks(master_seed=master_seed, sabotage=sabotage)
    if cfg is not None and cfg.problem is not None:
        inst = build_problem(cfg.problem, SeededStream(master_seed).derive("data", 0))
        x0 = initial_params(inst, cfg.problem, SeededStream(master_seed).derive("init", 0))
        rng = SeededStream(master_seed).derive("probe", 0).generator()
        v = rng.standard_normal(inst.problem.dim)
        v /= np.linalg.norm(v)
        # probe away from symmetric starts (zero logistic weights)
        probe = x0 + 0.1 * rng.standard_normal(inst.problem.dim)
        verdicts.append(verify_mod.taylor_displaced_gradient_check(
            inst.problem.clients[0], probe, v, [1e-1, 5e-2, 2.5e-2]))
        verdicts.append(verify_mod.perstep_equivalence_check(
            inst.problem, x0, 0.05, 0.1, 3, None, 3,
            SeededStream(master_seed).derive("appE-cfg", 0)))
    path = out_dir / "verdicts.jsonl"
    with open(path, "w", encoding="utf-8") as fh:
        for v in verdicts:
            fh.write(json.dumps(v.to_json_dict(), separators=(",", ":")) + "\n")
    all_passed = all(v.passed for v in verdicts)
    if not quiet:
        for v in verdicts:
            status = "PASS" if v.passed else "FAIL"
            slope = "" if v.fitted_slope is None else f" slope={v.fitted_slope:.3f}"
            print(f"[{status}] {v.theorem_id}{slope} {v.notes}")
        print(f"wrote {path}")
    return path, all_passed


# ---------------------------------------------------------------------------
# checkpoints: b"GALN1" + little-endian u64 count + count little-endian f64
# ---------------------------------------------------------------------------


def write_checkpoint(path, x: np.ndarray) -> None:
    with open(path, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC)
        fh.write(struct.pack("<Q", x.shape[0]))
        fh.write(np.ascontiguousarray(x, dtype="<f8").tobytes())


def read_checkpoint(path) -> np.ndarray:
    with open(path, "rb") as fh:
        magic = fh.read(5)
        if magic != CHECKPOINT_MAGIC:
            raise ConfigError(f"{path}: bad checkpoint magic {magic!r}")
        (d,) = struct.unpack("<Q", fh.read(8))
        data = np.frombuffer(fh.read(8 * d), dtype="<f8")
        if data.shape[0] != d:
            raise ConfigError(f"{path}: truncated checkpoint")
        return data.astype(np.float64)

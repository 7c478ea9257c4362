#!/usr/bin/env python3
"""gradalign benchmark: closed-loop ``gradalign run`` and ``gradalign verify``.

Run from the root of a checkout:

    python3 perfbench/run.py --workload fedga-minibatch --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 40 --trace 1

One caller drives ``gradalign.cli.main`` in this process with ``--threads 1``;
each iteration starts only after the previous one has finished. The config
file is generated here, with ``--seed`` written into ``run.master_seed``.
Every iteration's output is checked. ``--trace 0`` reports the end-to-end
metrics; ``--trace 1`` alternates traced and untraced iterations and reports
the per-layer metrics. The last line of standard output is one JSON object.
See ``perfbench/README.md`` for the workloads, metrics and layer table.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from layertrace import SpanStat, Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

MIN_PROBES = 5  # fresh-interpreter set-ups per run, at least
TAIL_FRACTION = 0.2  # grad_var_tail averages this share of the last eval points
ACC_FLOOR = 0.80  # minimum final test accuracy of a training run

_BLOBS = {
    "problem.kind": "blobs",
    "problem.classes": 10,
    "problem.per_class": 200,
    "problem.dim": 20,
    "problem.sep": 4,
    "problem.partition": "label_shard",
}
# the FedGA arm of acceptance criterion 7
FEDGA_MINIBATCH = {
    **_BLOBS,
    "problem.clients": 10,
    "problem.model": "logistic",
    "algo.variant": "fedga",
    "algo.alpha": 0.3,
    "algo.beta": 0.1,
    "algo.local_steps": 10,
    "algo.batch": 20,
    "run.rounds": 150,
    "run.eval_every": 10,
}
MLP_EVAL = {
    **_BLOBS,
    "problem.clients": 20,
    "problem.classes_per_client": 2,
    "problem.model": "mlp",
    "problem.hidden": 16,
    "algo.variant": "scaffold",
    "algo.alpha": 0.1,
    "algo.local_steps": 5,
    "algo.batch": "full",
    "run.rounds": 60,
    "run.clients_per_round": 10,
    "run.eval_every": 1,
}


@dataclass(frozen=True)
class Workload:
    command: str  # gradalign subcommand
    config: dict


WORKLOADS = {
    "fedga-minibatch": Workload("run", FEDGA_MINIBATCH),
    "mlp-eval": Workload("run", MLP_EVAL),
    # Not in BENCHMARK.json: gradalign verify crashes or reports FAIL verdicts
    # for about a third of master seeds (see README.md), so it is not yet a
    # workload on which no operation fails. The config carries the
    # fedga-minibatch problem, so the two config-dependent checks run too.
    "verify": Workload("verify", FEDGA_MINIBATCH),
}

PER_LAYER = (
    ("kernels.logistic_value_grad", ("calls", "self_s", "us_per_call", "rows", "mflop_computed")),
    ("kernels.mlp_value_grad", ("calls", "self_s", "us_per_call", "rows", "mflop_computed")),
    ("objectives.stoch_grad", ("calls", "self_s")),
    ("objectives.grad", ("calls",)),
    ("objectives.hvp", ("calls", "self_s")),
    ("params.mean_reduce", ("calls", "total_s")),
    ("params.axpy", ("calls", "total_s")),
    ("params.SeededStream.generator", ("calls", "total_s", "epoch_calls")),
    ("datagen.MinibatchSchedule.next_batch", ("calls", "self_s")),
    ("datagen.gen_blobs", ("total_s",)),
    ("datagen.partition", ("total_s",)),
    ("algorithms.run_round", ("calls", "self_s", "p50_us", "p90_us")),
    ("regularizer.regularizer_report", ("calls", "total_s", "self_s")),
    ("harness.evaluate", ("calls", "total_s", "self_s")),
    ("harness.parse_config", ("total_s",)),
    ("harness.build_problem", ("total_s",)),
    ("harness.run_experiment", ("self_s",)),
)
# printed only by the verify workload, which is not in BENCHMARK.json
PER_LAYER_VERIFY = (
    ("verify.run_all_checks", ("total_s",)),
    ("verify.descent_condition_check", ("total_s",)),
    ("verify.perstep_equivalence_check", ("total_s",)),
    ("verify.theorem4_residual", ("total_s",)),
    ("verify.taylor_displaced_gradient_check", ("total_s",)),
)
FIELD_UNITS = {
    "calls": "count",
    "epoch_calls": "count",
    "rows": "count",
    "self_s": "s",
    "total_s": "s",
    "us_per_call": "us",
    "p50_us": "us",
    "p90_us": "us",
    "mflop_computed": "Mflop",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40.0,
                        help="length of the measured closed loop")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def write_config(path: Path, workload: Workload, seed: int) -> None:
    lines = [f"{key} = {value}" for key, value in workload.config.items()]
    lines.append(f"run.master_seed = {seed}")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


class SetupProbe:
    """Fresh-interpreter set-up times, taken between closed-loop iterations.

    Each call runs ``setup_probe.py`` once and keeps its phase times. The
    probes are spread over the loop so that they see the same host states as
    the iterations; the first call only warms caches and is not kept.
    """

    def __init__(self, cfg_path: Path, out_dir: Path):
        self.argv = [sys.executable, str(HERE / "setup_probe.py"), str(cfg_path), str(out_dir)]
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC),
                                                               self.env.get("PYTHONPATH")]))
        self.probes: list[dict] = []
        self._warm = False

    def __call__(self) -> None:
        done = subprocess.run(self.argv, env=self.env, cwd=ROOT, capture_output=True,
                              text=True, timeout=60, check=True)
        probe = json.loads(done.stdout.strip().splitlines()[-1])
        if self._warm:
            self.probes.append(probe)
        self._warm = True


def machine_block(backend: str) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_name = "unknown"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name,
        "backend": backend,
        "note": f"every number is for the {backend} kernel backend",
    }


class Calibration:
    """A fixed loop of small numpy and Python work, timed between iterations.

    On a shared host the speed of a core changes by tens of percent for
    seconds at a time, because of what other tenants run. The loop runs
    before the first iteration and after each one, so it samples the same
    core states as the iterations, and the mean iteration time divided by the
    mean loop time removes most of that change. The loop's inputs are fixed
    and never come from --seed.
    """

    LOOPS = 600

    def __init__(self):
        rng = np.random.default_rng(0)
        self.X = rng.standard_normal((20, 20))
        self.W = rng.standard_normal((20, 10))

    def __call__(self) -> float:
        X, W = self.X, self.W
        start = time.perf_counter()
        for i in range(self.LOOPS):
            z = X @ W
            z -= z.max(axis=1, keepdims=True)
            np.exp(z, out=z)
            z /= z.sum(axis=1, keepdims=True)
            g = np.concatenate([(X.T @ z).ravel(), z[0]])
            float(np.linalg.norm(g))
            hashlib.blake2b(i.to_bytes(8, "little"), digest_size=16).digest()
        return time.perf_counter() - start


class Iterations:
    """Runs ``gradalign <command>`` once per call and checks what it wrote.

    An iteration fails when the exit code is not 0, the metrics carry a
    truncation marker, the output bytes differ from the first iteration at
    this seed, a verdict is not PASS, or the final test accuracy is below
    ``ACC_FLOOR``.
    """

    def __init__(self, workload: Workload, cfg_path: Path, out_dir: Path, seed: int):
        self.workload = workload
        self.argv = [workload.command, str(cfg_path), "--out", str(out_dir),
                     "--threads", "1", "--quiet"]
        if workload.command == "verify":
            self.output = out_dir / "verdicts.jsonl"
        else:
            self.output = out_dir / f"{cfg_path.stem}-seed{seed}.metrics.jsonl"
        self.reference = None
        self.attempted = 0
        self.errors: list[str] = []
        self.training: list[dict] = []  # per training iteration that exited cleanly

    def run(self, call) -> float:
        """One closed-loop iteration through ``call``; returns its wall time."""
        self.output.unlink(missing_ok=True)
        start = time.perf_counter()
        try:
            code = call(self.argv)
        except Exception as exc:  # a traceback is a failed iteration, not a crash
            code = f"{type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - start
        self.attempted += 1
        error = self._check(code, elapsed)
        if error is not None:
            self.errors.append(f"iteration {self.attempted}: {error}")
        return elapsed

    def _check(self, code, elapsed):
        if code != 0:
            return f"exit {code}"
        if not self.output.is_file():
            return f"{self.output.name} was not written"
        data = self.output.read_bytes()
        if self.reference is None:
            self.reference = data
        elif data != self.reference:
            return f"{self.output.name} differs from the first iteration"
        records = [json.loads(line) for line in data.splitlines()]
        if not records:
            return f"{self.output.name} is empty"
        if self.workload.command == "verify":
            failed = [r["theorem_id"] for r in records if not r["passed"]]
            return f"verdicts not PASS: {failed}" if failed else None
        if any(r.get("truncated") for r in records):
            return "metrics end with a truncation marker"
        tail = records[-max(1, round(TAIL_FRACTION * len(records))):]
        final = records[-1]
        self.training.append({
            "updates_per_s": final["updates_cum"] / elapsed,
            "final_test_acc": final["test_acc"],
            "grad_var_tail": statistics.fmean(r["grad_var"] for r in tail),
        })
        if final["test_acc"] < ACC_FLOOR:
            return f"final_test_acc {final['test_acc']:.4f} < floor {ACC_FLOOR}"
        return None


def closed_loop(iters: Iterations, calls, seconds: float, calibrate, probe):
    """Cycle through ``calls`` for ``seconds`` of iterations, at least once.

    The calibration loop runs before the first iteration and after each one.
    One set-up probe follows each cycle; probe time does not count towards
    ``seconds``. Returns the wall times per call and the calibration times.
    """
    walls = [[] for _ in calls]
    cals = [calibrate()]
    probe()  # warm-up, not kept
    deadline = time.perf_counter() + seconds
    while True:
        for k, call in enumerate(calls):
            walls[k].append(iters.run(call))
            cals.append(calibrate())
        start = time.perf_counter()
        probe()
        deadline += time.perf_counter() - start
        if time.perf_counter() >= deadline:
            break
    while len(probe.probes) < MIN_PROBES:
        probe()
    return walls, cals


def spread(values) -> dict:
    """Median, quartiles, minimum and sample count of ``values``."""
    values = list(values)
    med = statistics.median(values)
    q1 = q3 = med
    if len(values) > 1:
        q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "min": min(values), "n": len(values)}


def end_to_end(iters: Iterations, walls: list, cals: list, probes: list) -> dict:
    rows = {
        "setup_s": ("s", spread(p["setup_s"] for p in probes)),
        "import_s": ("s", spread(p["import_s"] for p in probes)),
        "run_s": ("s", spread(walls)),
        "calibration_s": ("s", spread(cals)),
        # mean iteration wall time in units of the mean calibration loop time
        "run_norm": ("cal", spread([statistics.fmean(walls) / statistics.fmean(cals)])),
    }
    if iters.training:
        rows["updates_per_s"] = ("1/s", spread(t["updates_per_s"] for t in iters.training))
        rows["final_test_acc"] = ("frac", spread(t["final_test_acc"] for t in iters.training))
        rows["grad_var_tail"] = ("1", spread(t["grad_var_tail"] for t in iters.training))
    rows["failed_frac"] = ("frac", spread([len(iters.errors) / iters.attempted]))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    rows["peak_rss_mb"] = ("MB", spread([peak_rss_mb]))

    print("end-to-end (median and quartiles within this run):")
    for name, (unit, s) in rows.items():
        rel = (s["q3"] - s["q1"]) / s["median"] if s["median"] else 0.0
        print(f"  {name:<15} median {s['median']:<12.6g} {unit:<5} "
              f"IQR [{s['q1']:.6g}, {s['q3']:.6g}] ({rel:.1%} of median), "
              f"min {s['min']:.6g}, n={s['n']}")
    return {name: {"value": rows[name][1]["median"], "unit": rows[name][0]}
            for name in ("setup_s", "run_norm", "peak_rss_mb")}


def per_layer(layers, snapshots: list, durations: dict, probes: list,
              traced: list, plain: list) -> tuple[dict, list]:
    """Per-layer metrics from per-iteration span counters; counts must repeat."""
    empty = SpanStat()
    first = snapshots[0]
    problems = []
    metrics = {}
    for name, fields in layers:
        calls = [s.get(name, empty).calls for s in snapshots]
        if len(set(calls)) > 1:
            problems.append(f"{name}.calls differs between traced iterations: {calls}")
        stat = first.get(name, empty)
        self_s = statistics.median(s.get(name, empty).self_time for s in snapshots)
        total_s = statistics.median(s.get(name, empty).total for s in snapshots)
        kept = sorted(durations.get(name, ()))
        values = {
            "calls": stat.calls,
            "epoch_calls": stat.epoch_calls,
            "rows": stat.rows,
            "mflop_computed": stat.flop / 1e6,
            "self_s": self_s,
            "total_s": total_s,
            "us_per_call": 1e6 * self_s / stat.calls if stat.calls else 0.0,
            "p50_us": 1e6 * statistics.median(kept) if kept else 0.0,
            "p90_us": 1e6 * statistics.quantiles(kept, n=10)[8] if len(kept) > 1 else 0.0,
        }
        for field in fields:
            metrics[f"{name}.{field}"] = {"value": values[field], "unit": FIELD_UNITS[field]}
    metrics["cli.import_s"] = {"value": statistics.median(p["import_s"] for p in probes),
                               "unit": "s"}
    overhead = statistics.fmean(traced) / statistics.fmean(plain) - 1.0
    metrics["trace.overhead_frac"] = {"value": overhead, "unit": "ratio"}
    return metrics, problems


def run_workload(args) -> dict:
    sys.path.insert(0, str(SRC))
    from gradalign import cli, kernels

    workload = WORKLOADS[args.workload]
    work_dir = OUT / f"{args.workload}-seed{args.seed}-pid{os.getpid()}"
    work_dir.mkdir(parents=True, exist_ok=True)
    try:
        cfg_path = work_dir / f"{args.workload}.cfg"
        write_config(cfg_path, workload, args.seed)
        probe = SetupProbe(cfg_path, work_dir / "probe")
        print("machine: " + json.dumps(machine_block(kernels.BACKEND)))
        print(f"workload {args.workload}: gradalign {workload.command}, seed {args.seed}, "
              f"closed loop for {args.seconds:g} s, trace {args.trace}")

        iters = Iterations(workload, cfg_path, work_dir, args.seed)
        iters.run(cli.main)  # warm-up: checked, and its output is the reference
        calibrate = Calibration()
        if args.trace == 0:
            (walls,), cals = closed_loop(iters, [cli.main], args.seconds, calibrate, probe)
            metrics = end_to_end(iters, walls, cals, probe.probes)
            problems = []
        else:
            tracer = Tracer()
            root = tracer.span("cli.main", cli.main)
            snapshots = []

            def traced_main(argv):
                tracer.reset(len(snapshots))
                tracer.install()
                try:
                    return root(argv)
                finally:
                    tracer.uninstall()
                    snapshots.append(tracer.stats)

            (traced, plain), _ = closed_loop(iters, [traced_main, cli.main], args.seconds,
                                             calibrate, probe)
            if tracer.missing:
                print("not traced (missing): " + ", ".join(tracer.missing))
            spans_path = OUT / f"spans-{args.workload}.jsonl"
            tracer.write_spans(spans_path)
            print(f"spans of the last traced iteration: {spans_path.relative_to(ROOT)}")
            layers = PER_LAYER + (PER_LAYER_VERIFY if workload.command == "verify" else ())
            metrics, problems = per_layer(layers, snapshots, tracer.durations, probe.probes,
                                          traced, plain)
            for name, m in metrics.items():
                print(f"  {name:<48} {m['value']:<14.6g} {m['unit']}")
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    for line in iters.errors + problems:
        print(f"FAILED {line}")
    return {
        "correct": not iters.errors and not problems,
        "attempted": iters.attempted,
        "failed": len(iters.errors),
        "metrics": metrics,
    }


def run_all(args) -> int:
    """Each workload in its own process, so peak RSS stays per workload."""
    status = 0
    for name in WORKLOADS:
        done = subprocess.run([sys.executable, str(Path(__file__).resolve()), "--workload", name,
                               "--seed", str(args.seed), "--seconds", str(args.seconds),
                               "--trace", str(args.trace)],
                              cwd=ROOT, capture_output=True, text=True, timeout=600)
        sys.stdout.write(done.stdout)
        sys.stderr.write(done.stderr)
        lines = done.stdout.strip().splitlines()
        if done.returncode != 0 or not lines:
            print(f"{name}: no result, exit {done.returncode}")
            status = 1
            continue
        result = json.loads(lines[-1])
        status |= not result["correct"]
        print(f"{name}: correct {result['correct']}, failed_frac "
              f"{result['failed'] / result['attempted']:g} "
              f"({result['failed']} of {result['attempted']})")
    return status


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "gradalign" / "cli.py").is_file():
        print(f"perfbench: gradalign sources not found under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    result = run_workload(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

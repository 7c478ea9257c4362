#!/usr/bin/env python3
"""Smoke test of the benchmark, each workload at minimal length.

Run from the root of a checkout:

    python3 perfbench/smoke.py

For every workload in ``BENCHMARK.json``, and for ``verify``, it runs
``perfbench/run.py`` at seed 1 once untraced and once traced and checks that:

* the run exits 0, its last line is a result with ``correct`` true, and the
  metric names and units are exactly those ``BENCHMARK.json`` lists;
* every traced function shows work (``calls`` or time above 0) on the
  workloads where the layer table expects it, and none on the others;
  ``verify`` also prints the ``verify.*`` metrics, which no listed workload
  has.

It also checks that the benchmark refuses to run, without printing a result,
in a directory that holds only ``BENCHMARK.json`` and ``perfbench``.
Exits 0 when every check passes.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from run import FIELD_UNITS, PER_LAYER_VERIFY  # noqa: E402
TRAINING = {"fedga-minibatch", "mlp-eval"}
ALL = TRAINING | {"verify"}

# per-layer metric -> workloads where it must be above 0; it must be 0 elsewhere
EXPECTED_WORK = {
    "kernels.logistic_value_grad.calls": {"fedga-minibatch", "verify"},
    "kernels.mlp_value_grad.calls": {"mlp-eval", "verify"},
    "objectives.stoch_grad.calls": ALL,
    "objectives.grad.calls": ALL,
    "objectives.hvp.calls": ALL,
    "params.mean_reduce.calls": ALL,
    "params.axpy.calls": ALL,
    "params.SeededStream.generator.calls": ALL,
    "params.SeededStream.generator.epoch_calls": {"fedga-minibatch", "verify"},
    "datagen.MinibatchSchedule.next_batch.calls": ALL,
    "datagen.gen_blobs.total_s": ALL,
    "datagen.partition.total_s": ALL,
    "algorithms.run_round.calls": TRAINING,
    "regularizer.regularizer_report.calls": ALL,
    "harness.evaluate.calls": TRAINING,
    "harness.parse_config.total_s": ALL,
    "harness.build_problem.total_s": ALL,
    "harness.run_experiment.self_s": TRAINING,
    "cli.import_s": ALL,
    **{f"{name}.total_s": {"verify"} for name, _ in PER_LAYER_VERIFY},
}


def run_bench(cwd: Path, workload: str, trace: int):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1",
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=180)


def check_run(spec: dict, workload: str, trace: int) -> list[str]:
    where = f"{workload} trace {trace}"
    done = run_bench(ROOT, workload, trace)
    if done.returncode != 0:
        return [f"{where}: exit {done.returncode}\n{done.stderr}"]
    result = json.loads(done.stdout.strip().splitlines()[-1])
    errors = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        errors.append(f"{where}: result keys {sorted(result)}")
    if not result["correct"] or result["failed"] or result["attempted"] < 1:
        errors.append(f"{where}: correct={result['correct']} failed={result['failed']} "
                      f"attempted={result['attempted']}\n{done.stdout}")
    declared = spec["per_layer"] if trace else spec["end_to_end"]
    want = {m["name"]: m["unit"] for m in declared}
    if trace and workload == "verify":
        want.update({f"{name}.{field}": FIELD_UNITS[field]
                     for name, fields in PER_LAYER_VERIFY for field in fields})
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != want:
        errors.append(f"{where}: printed metrics differ from BENCHMARK.json: "
                      f"missing {sorted(set(want) - set(got))}, "
                      f"extra {sorted(set(got) - set(want))}, "
                      f"units {sorted(n for n in set(want) & set(got) if want[n] != got[n])}")
    if trace:
        for name, workloads in EXPECTED_WORK.items():
            # a metric this workload does not print (verify.* elsewhere) reads 0
            value = result["metrics"].get(name, {}).get("value", 0)
            expected = workload in workloads
            if (value > 0) != expected:
                errors.append(f"{where}: {name} = {value}, expected "
                              f"{'> 0' if expected else '0'}")
    else:
        zeros = [name for name, m in result["metrics"].items() if not m["value"] > 0]
        if zeros:
            errors.append(f"{where}: end-to-end metrics not above 0: {zeros}")
    return errors


def check_bare_directory() -> list[str]:
    bare = ROOT / ".perfbench_out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "perfbench").mkdir(parents=True)
    shutil.copy2(ROOT / "BENCHMARK.json", bare)
    for path in (ROOT / "perfbench").iterdir():
        if path.is_file():
            shutil.copy2(path, bare / "perfbench")
    try:
        done = run_bench(bare, "fedga-minibatch", 0)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if done.returncode == 0 or '"correct"' in done.stdout:
        return [f"bare directory: exit {done.returncode}, stdout {done.stdout!r}"]
    return []


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    errors = check_bare_directory()
    # verify is not in BENCHMARK.json yet (see README.md); seed 1 passes
    for workload in [w["name"] for w in spec["workloads"]] + ["verify"]:
        for trace in (0, 1):
            found = check_run(spec, workload, trace)
            print(f"{workload} trace {trace}: {'FAIL' if found else 'ok'}")
            errors.extend(found)
    for line in errors:
        print(line)
    print("smoke: " + ("FAILED" if errors else "passed"))
    return 1 if errors else 0


if __name__ == "__main__":
    raise SystemExit(main())

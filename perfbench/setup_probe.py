"""Time what one ``gradalign run`` pays before round 1, in a fresh interpreter.

Usage (with the checkout's ``src`` on PYTHONPATH):

    python3 perfbench/setup_probe.py <config> <out_dir>

Imports ``gradalign.cli`` and calls ``cli.main(["run", ...])`` with
``harness.run_round`` replaced by a stub that stops the run on its first
call, so the time covers whatever ``run_experiment`` does before round 1.
Prints one JSON object: ``import_s`` and ``setup_s``, in seconds.
"""

import time

t_start = time.perf_counter()
import gradalign.cli  # noqa: E402

t_import = time.perf_counter()

import json  # noqa: E402
import sys  # noqa: E402

import gradalign.harness  # noqa: E402


class _RoundOne(Exception):
    """Raised by the stub when round 1 starts."""


def _stop_at_round_one(*args, **kwargs):
    raise _RoundOne(time.perf_counter())


gradalign.harness.run_round = _stop_at_round_one
try:
    gradalign.cli.main(["run", sys.argv[1], "--out", sys.argv[2], "--threads", "1", "--quiet"])
except _RoundOne as stop:
    t_round_one = stop.args[0]
else:
    raise SystemExit("setup_probe: the run ended without reaching run_round")

print(json.dumps({"import_s": t_import - t_start, "setup_s": t_round_one - t_start}))

"""Span tracing of gradalign's modules, installed from outside the package.

Each traced function is replaced, where its callers look it up, by a wrapper
that records a span (name, start, end, parent) and per-name counters. Spans
of one traced iteration share an iteration id and stay in memory until the
caller writes them out. Self time is a span's duration minus the time of its
traced children.

``install`` patches and ``uninstall`` restores, so untraced and traced
iterations can alternate in one process.
"""

from __future__ import annotations

import functools
import importlib
import json
import time


def _kernel_work(args, stat, flops_per_row):
    """Rows and matmul flops, both computed from the argument shapes."""
    X = args[0]
    rows = 1
    for n in X.shape[:-1]:
        rows *= n
    stat.rows += rows
    stat.flop += rows * flops_per_row(X.shape[-1], *args[2:])


def _logistic_work(args, stat):
    # logits X @ W and gradient X.T @ p: 2*d*C flops per row each
    _kernel_work(args, stat, lambda d, W, b: 4 * d * W.shape[-1])


def _mlp_work(args, stat):
    # X @ W1 and X.T @ dh: 2*d*H each; a @ W2, a.T @ p, p @ W2.T: 2*H*C each
    def per_row(d, W1, b1, W2, b2):
        h, c = W2.shape[-2], W2.shape[-1]
        return 4 * d * h + 6 * h * c

    _kernel_work(args, stat, per_row)


def _epoch_draw(args, stat):
    lineage = args[0].lineage
    if lineage and lineage[-1][0] == "epoch":
        stat.epoch_calls += 1


# (module, attribute path where callers look it up, span name, extra counter)
TRACE_POINTS = (
    ("gradalign.cli", "parse_config", "harness.parse_config", None),
    ("gradalign.cli", "run_experiment", "harness.run_experiment", None),
    ("gradalign.harness", "build_problem", "harness.build_problem", None),
    ("gradalign.harness", "evaluate", "harness.evaluate", None),
    ("gradalign.harness", "run_round", "algorithms.run_round", None),
    ("gradalign.harness", "gen_blobs", "datagen.gen_blobs", None),
    ("gradalign.harness", "partition", "datagen.partition", None),
    ("gradalign.harness", "regularizer_report", "regularizer.regularizer_report", None),
    ("gradalign.harness", "axpy", "params.axpy", None),
    ("gradalign.algorithms", "axpy", "params.axpy", None),
    ("gradalign.algorithms", "mean_reduce", "params.mean_reduce", None),
    ("gradalign.objectives", "mean_reduce", "params.mean_reduce", None),
    ("gradalign.regularizer", "mean_reduce", "params.mean_reduce", None),
    ("gradalign.verify", "mean_reduce", "params.mean_reduce", None),
    ("gradalign.regularizer", "regularizer_report", "regularizer.regularizer_report", None),
    ("gradalign.verify", "regularizer_report", "regularizer.regularizer_report", None),
    ("gradalign.verify", "gen_blobs", "datagen.gen_blobs", None),
    ("gradalign.verify", "partition", "datagen.partition", None),
    ("gradalign.kernels", "logistic_value_grad", "kernels.logistic_value_grad", _logistic_work),
    ("gradalign.kernels", "mlp_value_grad", "kernels.mlp_value_grad", _mlp_work),
    ("gradalign.objectives", "ClientObjective.stoch_grad", "objectives.stoch_grad", None),
    ("gradalign.objectives", "LogisticClient.stoch_grad", "objectives.stoch_grad", None),
    ("gradalign.objectives", "MLPClient.stoch_grad", "objectives.stoch_grad", None),
    ("gradalign.objectives", "QuadraticClient.grad", "objectives.grad", None),
    ("gradalign.objectives", "LogisticClient.grad", "objectives.grad", None),
    ("gradalign.objectives", "MLPClient.grad", "objectives.grad", None),
    ("gradalign.objectives", "ClientObjective.hvp", "objectives.hvp", None),
    ("gradalign.objectives", "QuadraticClient.hvp", "objectives.hvp", None),
    ("gradalign.params", "SeededStream.generator", "params.SeededStream.generator", _epoch_draw),
    ("gradalign.datagen", "MinibatchSchedule.next_batch",
     "datagen.MinibatchSchedule.next_batch", None),
    # harness calls these as verify_mod.<name>, verify.py through its globals
    ("gradalign.verify", "run_all_checks", "verify.run_all_checks", None),
    ("gradalign.verify", "descent_condition_check", "verify.descent_condition_check", None),
    ("gradalign.verify", "perstep_equivalence_check", "verify.perstep_equivalence_check", None),
    ("gradalign.verify", "theorem4_residual", "verify.theorem4_residual", None),
    ("gradalign.verify", "taylor_displaced_gradient_check",
     "verify.taylor_displaced_gradient_check", None),
)

# span names whose individual durations are kept for percentiles
KEEP_DURATIONS = frozenset({"algorithms.run_round"})


class SpanStat:
    __slots__ = ("calls", "total", "self_time", "rows", "flop", "epoch_calls")

    def __init__(self):
        self.calls = 0
        self.total = 0.0
        self.self_time = 0.0
        self.rows = 0
        self.flop = 0
        self.epoch_calls = 0


class Tracer:
    """Per-name counters for the current iteration plus its span records."""

    def __init__(self):
        self.stats: dict[str, SpanStat] = {}
        self.durations: dict[str, list] = {name: [] for name in KEEP_DURATIONS}
        self.spans: list = []
        self.iteration = 0
        self.missing: list[str] = []
        self._stack: list = []  # [span id, child time] per open span
        self._next_id = 0
        self._patches: list = []

    def reset(self, iteration: int) -> None:
        """Start a new iteration: clear counters and spans, keep durations."""
        self.stats = {}
        self.spans = []
        self.iteration = iteration
        self._next_id = 0

    def span(self, name, fn, extra=None):
        """Return ``fn`` wrapped so each call records a span named ``name``."""
        stack = self._stack
        keep = self.durations.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span_id = self._next_id
            self._next_id += 1
            parent = stack[-1][0] if stack else None
            frame = [span_id, 0.0]
            stack.append(frame)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                duration = end - start
                if stack:
                    stack[-1][1] += duration
                stat = self.stats.get(name)
                if stat is None:
                    stat = self.stats[name] = SpanStat()
                stat.calls += 1
                stat.total += duration
                stat.self_time += duration - frame[1]
                if extra is not None:
                    extra(args, stat)
                if keep is not None:
                    keep.append(duration)
                self.spans.append((span_id, parent, name, start, end))

        return wrapper

    def install(self) -> None:
        """Patch every trace point that exists; record the ones that do not."""
        self.missing = []
        for module_name, path, name, extra in TRACE_POINTS:
            owner = importlib.import_module(module_name)
            *owners, attr = path.split(".")
            for part in owners:
                owner = getattr(owner, part, None)
            if owner is None or attr not in vars(owner):
                self.missing.append(f"{module_name}.{path}")
                continue
            original = vars(owner)[attr]
            setattr(owner, attr, self.span(name, original, extra))
            self._patches.append((owner, attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches = []

    def write_spans(self, path) -> None:
        """One JSON line per span of the last traced iteration."""
        with open(path, "w", encoding="utf-8") as fh:
            for span_id, parent, name, start, end in sorted(self.spans):
                fh.write(json.dumps({"trace": self.iteration, "span": span_id,
                                     "parent": parent, "name": name,
                                     "start": start, "end": end},
                                    separators=(",", ":")) + "\n")

"""Synthetic classification data, CSV ingestion, client partitioning, and
minibatch schedules.

Partitions are disjoint covers of the example indices. The heterogeneous mode
is label sharding: examples are grouped by class, each class is cut into
single-label shards, and every client receives ``classes_per_client`` shards.
With n_clients == n_classes and one shard per client this degenerates to the
one-whole-class-per-client extreme.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ConfigError, DataFormatError, UsageError
from .params import SeededStream

__all__ = [
    "Dataset",
    "Partition",
    "MinibatchSchedule",
    "gen_blobs",
    "partition",
    "train_test_split",
    "load_csv",
    "save_csv",
]


@dataclass(frozen=True)
class Dataset:
    features: np.ndarray  # (N, input_dim) float64
    labels: np.ndarray  # (N,) int64 in [0, n_classes)
    n_classes: int

    def __post_init__(self):
        if self.features.ndim != 2 or self.labels.ndim != 1:
            raise UsageError("features must be 2-D and labels 1-D")
        if self.features.shape[0] != self.labels.shape[0]:
            raise UsageError("features and labels disagree on N")
        present = np.unique(self.labels)
        expected = np.arange(self.n_classes)
        if present.shape != expected.shape or not np.array_equal(present, expected):
            raise UsageError(
                f"labels must cover every class in [0, {self.n_classes}); saw {present.tolist()}"
            )

    @property
    def n(self) -> int:
        return self.features.shape[0]


@dataclass(frozen=True)
class Partition:
    assignment: tuple  # per client: int64 index array into the dataset
    mode: str  # "iid" or "label_shard"
    classes_per_client: int = 1


def gen_blobs(n_classes: int, per_class: int, input_dim: int, sep: float,
              stream: SeededStream) -> Dataset:
    """Gaussian class clusters with unit within-class variance.

    Class means are random directions rescaled so the minimum pairwise
    distance equals ``sep``.
    """
    if n_classes < 1 or per_class < 1 or input_dim < 1:
        raise UsageError("sizes must be >= 1")
    if sep <= 0:
        raise UsageError("sep must be > 0")
    rng = stream.generator()
    means = rng.standard_normal((n_classes, input_dim))
    if n_classes > 1:
        dists = np.linalg.norm(means[:, None, :] - means[None, :, :], axis=2)
        min_dist = dists[np.triu_indices(n_classes, k=1)].min()
        means *= sep / min_dist
    labels = np.repeat(np.arange(n_classes, dtype=np.int64), per_class)
    # feature-major, the layout the kernels read (see kernels)
    features = np.empty((input_dim, labels.shape[0])).T
    np.add(means[labels], rng.standard_normal((labels.shape[0], input_dim)), out=features)
    return Dataset(features, labels, n_classes)


def train_test_split(ds: Dataset, test_fraction: float, stream: SeededStream):
    """Stratified split; the test side stays at the server."""
    rng = stream.generator()
    train_idx = []
    test_idx = []
    for c in range(ds.n_classes):
        idx = np.flatnonzero(ds.labels == c)
        idx = idx[rng.permutation(idx.shape[0])]
        cut = idx.shape[0] - max(1, int(round(test_fraction * idx.shape[0])))
        if cut < 1:
            raise UsageError(f"class {c} too small for a {test_fraction:.0%} test split")
        train_idx.append(idx[:cut])
        test_idx.append(idx[cut:])
    train_idx = np.sort(np.concatenate(train_idx))
    test_idx = np.sort(np.concatenate(test_idx))
    # both sides feature-major, the layout the kernels read (see kernels)
    train = Dataset(ds.features.T.take(train_idx, axis=1).T, ds.labels[train_idx], ds.n_classes)
    test = Dataset(ds.features.T.take(test_idx, axis=1).T, ds.labels[test_idx], ds.n_classes)
    return train, test


def partition(ds: Dataset, n_clients: int, mode: str, stream: SeededStream,
              classes_per_client: int = 1) -> Partition:
    """Split example indices across clients as a disjoint cover."""
    if n_clients < 1:
        raise ConfigError("n_clients must be >= 1")
    rng = stream.generator()
    if mode == "iid":
        if n_clients > ds.n:
            raise ConfigError(f"iid partition infeasible: {n_clients} clients > {ds.n} examples")
        perm = rng.permutation(ds.n)
        parts = [np.sort(perm[k::n_clients]).astype(np.int64) for k in range(n_clients)]
        return Partition(tuple(parts), "iid")
    if mode == "label_shard":
        c = int(classes_per_client)
        if c < 1:
            raise ConfigError("classes_per_client must be >= 1")
        total_shards = n_clients * c
        if total_shards < ds.n_classes:
            raise ConfigError(
                f"label_shard infeasible: {n_clients} clients x {c} shards "
                f"cannot cover {ds.n_classes} classes"
            )
        if total_shards > ds.n:
            raise ConfigError(
                f"label_shard infeasible: {total_shards} shards > {ds.n} examples"
            )
        # one shard per class, then grow the class with most examples per shard
        counts = np.bincount(ds.labels, minlength=ds.n_classes)
        shards_per_class = np.ones(ds.n_classes, dtype=np.int64)
        for _ in range(total_shards - ds.n_classes):
            shards_per_class[int(np.argmax(counts / shards_per_class))] += 1
        shards = []
        for cls in range(ds.n_classes):
            idx = np.flatnonzero(ds.labels == cls)
            idx = idx[rng.permutation(idx.shape[0])]
            shards.extend(np.array_split(idx, shards_per_class[cls]))
        if any(s.shape[0] == 0 for s in shards):
            raise ConfigError("label_shard infeasible: produced an empty shard")
        order = rng.permutation(len(shards))
        parts = []
        for k in range(n_clients):
            mine = [shards[order[k * c + j]] for j in range(c)]
            parts.append(np.sort(np.concatenate(mine)).astype(np.int64))
        return Partition(tuple(parts), "label_shard", c)
    raise ConfigError(f"unknown partition mode {mode!r}")


def save_csv(ds: Dataset, path) -> None:
    """Rows of ``label,feat_0,...`` written at full float64 precision."""
    with open(path, "w", encoding="utf-8") as fh:
        for i in range(ds.n):
            feats = ",".join(format(v, ".17g") for v in ds.features[i])
            fh.write(f"{int(ds.labels[i])},{feats}\n")


def load_csv(path) -> Dataset:
    """Parse ``label,feat_0,...`` rows; labels are remapped to contiguous
    0..C-1 in first-appearance order. Header lines are auto-detected by a
    non-numeric first field."""
    try:
        lines = Path(path).read_text(encoding="utf-8").split("\n")
    except (OSError, UnicodeDecodeError) as exc:
        raise DataFormatError(f"cannot read data file {path}: {exc}") from None
    raw_labels = []
    rows = []
    width = None
    for lineno, line in enumerate(lines, start=1):
        line = line.strip()
        if not line:
            continue
        fields = line.split(",")
        if lineno == 1:
            try:
                float(fields[0])
            except ValueError:
                continue  # header
        if width is None:
            width = len(fields)
        elif len(fields) != width:
            raise DataFormatError(
                f"{path}: ragged row at line {lineno} "
                f"({len(fields)} fields, expected {width})"
            )
        try:
            values = [float(v) for v in fields]
        except ValueError as exc:
            raise DataFormatError(f"{path}: non-numeric value at line {lineno}: {exc}") from None
        if not all(math.isfinite(v) for v in values):
            raise DataFormatError(f"{path}: non-finite value at line {lineno}")
        raw_labels.append(values[0])
        rows.append(values[1:])
    if not rows:
        raise DataFormatError(f"{path}: no data rows")
    if width is not None and width < 2:
        raise DataFormatError(f"{path}: rows need a label plus at least one feature")
    remap = {}
    labels = np.empty(len(raw_labels), dtype=np.int64)
    for i, lab in enumerate(raw_labels):
        if lab not in remap:
            remap[lab] = len(remap)
        labels[i] = remap[lab]
    return Dataset(np.asarray(rows, dtype=np.float64), labels, len(remap))


class MinibatchSchedule:
    """Without-replacement batches over one client's examples.

    Each epoch is a fresh permutation from the schedule's stream
    (``stream.derive("epoch", e)``, drawn by re-keying one shared generator);
    within an epoch every local index appears in exactly one emitted batch (the
    tail batch may be short, and no batch spans two epochs). ``take(k)`` slices
    its k batches straight from the permutations, and ``next_batch`` is its
    k = 1 case. ``batch_size=None`` means full-batch: the schedule emits
    ``None`` and the objective uses all its data.
    """

    def __init__(self, n_examples: int | None, batch_size: int | None, stream: SeededStream):
        if batch_size is not None:
            if n_examples is None or n_examples < 1:
                raise UsageError("minibatch schedule needs a data-backed client")
            if batch_size < 1:
                raise UsageError("batch_size must be >= 1 or None for full batch")
        self.n_examples = n_examples
        self.batch_size = batch_size
        self.stream = stream
        self._epoch = 0
        self._pos = 0
        self._perm = None
        self._draw = stream.child_draws("epoch") if batch_size is not None else None

    def _next_epoch(self):
        self._perm = self._draw(self._epoch).permutation(self.n_examples).astype(
            np.int64, copy=False)
        self._epoch += 1
        self._pos = 0

    def next_batch(self):
        return self.take(1)[0]

    def take(self, k: int):
        """The next ``k`` batches, in order."""
        if self.batch_size is None:
            return [None] * k
        n, size = self.n_examples, self.batch_size
        batches = []
        while len(batches) < k:
            if self._perm is None or self._pos >= n:
                self._next_epoch()
            stop = min(n, self._pos + (k - len(batches)) * size)
            batches.extend(self._perm[lo:lo + size] for lo in range(self._pos, stop, size))
            self._pos = stop
        return batches

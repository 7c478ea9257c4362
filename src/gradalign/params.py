"""Flat parameter vectors, deterministic reductions, and derived random streams.

A parameter point is a plain 1-D float64 numpy array everywhere in this
package; the helpers here enforce that contract. The two reductions have
bit-level guarantees the algorithm and harness tests rely on:

* ``mean_reduce`` always accumulates in ascending index order, so results are
  independent of how many workers produced the inputs, and the mean of n
  identical vectors is bit-equal to that vector.
* ``SeededStream`` derives child streams as a pure function of
  (master_seed, lineage) via a counter-based generator, so any two runs that
  ask for the same stream get the same samples. ``child_draws`` gives the
  same samples for a family of child streams by re-keying one generator.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, NumericError, UsageError

__all__ = ["as_params", "axpy", "mean_reduce", "SeededStream", "derive_stream"]

_U64 = (1 << 64) - 1


def as_params(values) -> np.ndarray:
    """Coerce ``values`` to a 1-D float64 vector, rejecting NaN/Inf entries."""
    v = np.asarray(values, dtype=np.float64)
    if v.ndim != 1:
        raise DimensionError(f"parameter vector must be 1-D, got shape {v.shape}")
    if not np.all(np.isfinite(v)):
        raise NumericError("parameter vector contains non-finite entries")
    return v


def axpy(a: float, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Return ``a*x + y`` as a new vector; inputs are not modified."""
    if x.shape != y.shape:
        raise DimensionError(f"axpy length mismatch: {x.shape} vs {y.shape}")
    if not np.isfinite(a):
        raise NumericError(f"axpy scale is not finite: {a!r}")
    return a * x + y


def mean_reduce(vs) -> np.ndarray:
    """Arithmetic mean of equal-length vectors in fixed ascending order.

    Computed as ``vs[0] + mean(vs[i] - vs[0])`` so the mean of n copies of a
    vector is that vector exactly: the sum of differences starts at -0.0 and
    subtracts ``vs[0] - vs[i]``, so an all-zero sum stays -0.0, whose addition
    leaves every value unchanged, -0.0 included. Parallel callers write results
    into their own slots; this reduction itself is always serial.
    """
    vs = list(vs)
    if not vs:
        raise UsageError("mean_reduce requires a nonempty list")
    first = vs[0]
    if len(vs) == 1:
        return first.copy()
    acc = np.full_like(first, -0.0)
    for v in vs[1:]:
        if v.shape != first.shape:
            raise DimensionError(f"mean_reduce length mismatch: {v.shape} vs {first.shape}")
        acc -= first - v
    return first + acc / len(vs)


def _address(h, label: str, index: int) -> None:
    """Feed one (label, index) lineage step into the blake2b hasher ``h``."""
    h.update(label.encode("utf-8"))
    h.update(b"\x00")
    h.update((int(index) & _U64).to_bytes(8, "little"))
    h.update(b"\x01")


# One Philox for every keyed draw in the process, and the state of a fresh one
# (zero counter, empty output buffer). The whole state is set before each draw,
# so no draw depends on an earlier one; the package is single-threaded.
_KEYED = np.random.Generator(np.random.Philox(0))
_FRESH = _KEYED.bit_generator.state


def _keyed_generator(key: int) -> np.random.Generator:
    """The shared generator re-keyed to ``key``; its draws equal those of
    ``Generator(Philox(key=key))``. Valid until the next keyed draw.

    Philox is counter-based, so its output is a pure function of the 128-bit
    key and the counter. This is the one place that knows numpy's layout of
    that state: the key is two uint64 words, low word first.
    """
    words = _FRESH["state"]["key"]
    words[0] = key & _U64
    words[1] = key >> 64
    _KEYED.bit_generator.state = _FRESH
    return _KEYED


@dataclass(frozen=True)
class SeededStream:
    """Reproducible random stream addressed by a master seed plus lineage.

    ``derive`` is pure: the same (master_seed, lineage) always yields the
    same generator, and sibling streams are statistically independent
    (Philox keyed on a blake2b digest of the address).
    """

    master_seed: int
    lineage: tuple[tuple[str, int], ...] = ()

    def derive(self, label: str, index: int) -> "SeededStream":
        return SeededStream(self.master_seed, self.lineage + ((str(label), int(index)),))

    def _hasher(self):
        h = hashlib.blake2b(digest_size=16)
        h.update((int(self.master_seed) & _U64).to_bytes(8, "little"))
        for label, index in self.lineage:
            _address(h, label, index)
        return h

    def _key(self) -> int:
        return int.from_bytes(self._hasher().digest(), "little")

    def generator(self) -> np.random.Generator:
        """Fresh generator for this stream; the caller owns its state."""
        return np.random.Generator(np.random.Philox(key=self._key()))

    def child_draws(self, label: str):
        """Return ``draw(index)``, the generator of ``derive(label, index)``
        without building one: the stream's hash prefix is kept, and each call
        re-keys one shared Philox. Use each generator before the next call."""
        prefix = self._hasher()
        label = str(label)

        def draw(index: int) -> np.random.Generator:
            h = prefix.copy()
            _address(h, label, index)
            return _keyed_generator(int.from_bytes(h.digest(), "little"))

        return draw


def derive_stream(parent: SeededStream, label: str, index: int) -> SeededStream:
    """Child stream of ``parent``; deterministic function of all inputs."""
    return parent.derive(label, index)

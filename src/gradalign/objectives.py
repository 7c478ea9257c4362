"""Client objectives: exact quadratics, logistic regression, and a tanh MLP.

Quadratics carry analytic gradients and Hessian-vector products and serve as
exact oracles for the theorem checks. Supervised clients get hand-written
backprop gradients (see :mod:`gradalign.kernels`) and Hessian-vector products
via central differences of the gradient. All objectives are immutable after
construction; minibatch sampling state belongs to the caller.
"""

from __future__ import annotations

from abc import ABC, abstractmethod

import numpy as np

from . import kernels
from .errors import DimensionError, NumericError, UsageError
from .params import SeededStream, mean_reduce

__all__ = [
    "ClientObjective",
    "QuadraticClient",
    "LogisticClient",
    "MLPClient",
    "FederatedProblem",
    "make_quadratic_problem",
    "make_supervised_client",
]

_EPS_CBRT = float(np.cbrt(np.finfo(np.float64).eps))


class ClientObjective(ABC):
    """One client's loss f_i over a flat float64 parameter vector."""

    dim: int
    client_id: int | None = None
    has_analytic_hvp: bool = False
    #: number of local examples, or None for data-free objectives
    data_size: int | None = None

    @abstractmethod
    def value(self, x: np.ndarray) -> float:
        ...

    @abstractmethod
    def grad(self, x: np.ndarray) -> np.ndarray:
        ...

    def stoch_grad(self, x: np.ndarray, batch=None) -> np.ndarray:
        """Minibatch gradient; ``batch`` indexes this client's own data.

        ``None`` means the full set. Data-free objectives ignore the batch.
        """
        return self.grad(x)

    def hvp(self, x: np.ndarray, v: np.ndarray) -> np.ndarray:
        """Hessian-vector product via central differences of the gradient.

        A zero direction returns the zero vector rather than erroring.
        """
        if x.shape != v.shape:
            raise DimensionError(f"hvp length mismatch: {x.shape} vs {v.shape}")
        vn = float(np.linalg.norm(v))
        if vn == 0.0:
            return np.zeros_like(v)
        eps = _EPS_CBRT * (1.0 + float(np.linalg.norm(x))) / max(vn, 1e-12)
        return (self.grad(x + eps * v) - self.grad(x - eps * v)) / (2.0 * eps)

    def _checked(self, g: np.ndarray) -> np.ndarray:
        if not np.all(np.isfinite(g)):
            raise NumericError(f"non-finite gradient from client {self.client_id!r}")
        return g


class QuadraticClient(ClientObjective):
    """f(x) = 0.5 x'Ax + b'x with symmetric A; gradients and HVPs are exact."""

    has_analytic_hvp = True

    def __init__(self, A, b, client_id=None):
        A = np.asarray(A, dtype=np.float64)
        b = np.asarray(b, dtype=np.float64).ravel()
        if A.ndim != 2 or A.shape[0] != A.shape[1] or A.shape[0] != b.shape[0]:
            raise DimensionError(f"quadratic shapes off: A {A.shape}, b {b.shape}")
        scale = 1.0 + float(np.abs(A).max(initial=0.0))
        if float(np.abs(A - A.T).max(initial=0.0)) > 1e-14 * scale:
            raise UsageError("quadratic matrix must be symmetric")
        self.A = A
        self.b = b
        self.dim = b.shape[0]
        self.client_id = client_id

    def value(self, x):
        return 0.5 * float(x @ (self.A @ x)) + float(self.b @ x)

    def grad(self, x):
        return self._checked(self.A @ x + self.b)

    def hvp(self, x, v):
        if x.shape != v.shape:
            raise DimensionError(f"hvp length mismatch: {x.shape} vs {v.shape}")
        return self.A @ v


class _SupervisedClient(ClientObjective):
    """Shared plumbing for data-backed clients (features, labels, L2 decay).

    A subclass names its :mod:`gradalign.kernels` value+grad function in
    ``_kernel`` (looked up at call time) and gives ``_set_shapes`` the shapes
    of the parameter blocks its kernel takes, in their order in the flat
    vector. Each model class keeps its own ``grad`` and ``stoch_grad``, so
    per-class tracing (see ``perfbench/layertrace.py``) finds them.
    """

    def __init__(self, features, labels, n_classes, l2_decay=0.0, client_id=None):
        X = np.ascontiguousarray(features, dtype=np.float64)
        y = np.ascontiguousarray(labels, dtype=np.int64)
        if X.ndim != 2 or y.ndim != 1 or X.shape[0] != y.shape[0]:
            raise DimensionError(f"data shapes off: X {X.shape}, y {y.shape}")
        if l2_decay < 0:
            raise UsageError("l2_decay must be >= 0")
        self.features = X
        self.labels = y
        self.n_classes = int(n_classes)
        self.l2_decay = float(l2_decay)
        self.data_size = X.shape[0]
        self.client_id = client_id

    def _set_shapes(self, *shapes):
        self._shapes = shapes
        ends = np.cumsum([int(np.prod(s)) for s in shapes]).tolist()
        self._blocks = tuple(zip([0] + ends[:-1], ends, shapes))
        self.dim = ends[-1]

    def _slice(self, batch):
        if batch is None:
            return self.features, self.labels
        return self.features[batch], self.labels[batch]

    def _unpack(self, x):
        """Views of the parameter blocks of ``x`` (..., dim); leading axes stay."""
        lead = x.shape[:-1]
        return [x[..., lo:hi].reshape(lead + shape) for lo, hi, shape in self._blocks]

    def _data_grad(self, X, y, x):
        """Gradient of the data term at ``x`` (..., dim) on data X (..., n, d)."""
        _, *grads = getattr(kernels, self._kernel)(X, y, *self._unpack(x))
        return np.concatenate([g.reshape(x.shape[:-1] + (-1,)) for g in grads], axis=-1)

    def value(self, x):
        loss = getattr(kernels, self._kernel)(self.features, self.labels, *self._unpack(x))[0]
        return loss + 0.5 * self.l2_decay * float(x @ x)

    def stoch_grad(self, x, batch=None):
        X, y = self._slice(batch)
        g = self._data_grad(X, y, x)
        if self.l2_decay:
            g += self.l2_decay * x
        return self._checked(g)

    def logits(self, x, X=None):
        raise NotImplementedError

    def predict(self, x, X=None):
        return np.argmax(self.logits(x, X), axis=1)


class LogisticClient(_SupervisedClient):
    """Multinomial logistic regression; params are W (m x C) then bias (C)."""

    _kernel = "logistic_value_grad"

    def __init__(self, features, labels, n_classes, l2_decay=0.0, client_id=None):
        super().__init__(features, labels, n_classes, l2_decay, client_id)
        m, c = self.features.shape[1], self.n_classes
        self._set_shapes((m, c), (c,))

    def grad(self, x):
        return self.stoch_grad(x, None)

    def stoch_grad(self, x, batch=None):
        return super().stoch_grad(x, batch)

    def logits(self, x, X=None):
        W, b = self._unpack(x)
        return kernels.logistic_logits(self.features if X is None else X, W, b)


class MLPClient(_SupervisedClient):
    """input -> hidden tanh -> softmax; smooth enough for Taylor-residual checks."""

    _kernel = "mlp_value_grad"

    def __init__(self, features, labels, n_classes, hidden=16, l2_decay=0.0, client_id=None):
        super().__init__(features, labels, n_classes, l2_decay, client_id)
        m = self.features.shape[1]
        self.hidden = int(hidden)
        h, c = self.hidden, self.n_classes
        self._set_shapes((m, h), (h,), (h, c), (c,))

    def grad(self, x):
        return self.stoch_grad(x, None)

    def stoch_grad(self, x, batch=None):
        return super().stoch_grad(x, batch)

    def logits(self, x, X=None):
        W1, b1, W2, b2 = self._unpack(x)
        return kernels.mlp_logits(self.features if X is None else X, W1, b1, W2, b2)

    def init_params(self, stream: SeededStream) -> np.ndarray:
        """Symmetry-breaking start: scaled normal weights, zero biases."""
        rng = stream.generator()
        m = self.features.shape[1]
        h, c = self.hidden, self.n_classes
        W1 = rng.standard_normal((m, h)) / np.sqrt(m)
        W2 = rng.standard_normal((h, c)) / np.sqrt(h)
        return np.concatenate([W1.ravel(), np.zeros(h), W2.ravel(), np.zeros(c)])


def make_supervised_client(features, labels, n_classes, model="logistic", hidden=16,
                           l2_decay=0.0, client_id=None) -> ClientObjective:
    if model == "logistic":
        return LogisticClient(features, labels, n_classes, l2_decay, client_id)
    if model == "mlp":
        return MLPClient(features, labels, n_classes, hidden, l2_decay, client_id)
    raise UsageError(f"unknown model {model!r}")


def make_quadratic_problem(n: int, d: int, spread: float, stream: SeededStream):
    """n quadratic clients A_i = Abar + spread*S_i with mean-zero S_i and b_i.

    Abar is positive definite; the deviations sum to zero exactly across
    clients, so the homogeneous case is recovered at spread=0.
    """
    if n < 1 or d < 1 or spread < 0:
        raise UsageError("need n >= 1, d >= 1, spread >= 0")
    rng = stream.generator()
    M = rng.standard_normal((d, d))
    A_bar = M @ M.T / d + np.eye(d)
    devs_A = []
    devs_b = []
    for _ in range(n - 1):
        S = rng.standard_normal((d, d))
        devs_A.append((S + S.T) / 2.0)
        devs_b.append(rng.standard_normal(d))
    if n > 1:
        devs_A.append(-np.sum(devs_A, axis=0))
        devs_b.append(-np.sum(devs_b, axis=0))
    else:
        devs_A.append(np.zeros((d, d)))
        devs_b.append(np.zeros(d))
    return [
        QuadraticClient(A_bar + spread * devs_A[i], devs_b[i], client_id=i)
        for i in range(n)
    ]


class FederatedProblem:
    """n clients plus mean-objective services over them.

    The mean gradient is always assembled with :func:`mean_reduce` over
    ascending client index; every algorithm and check shares this one path so
    coupled comparisons stay bit-reproducible. All client gradients go through
    :meth:`stacked_grads`, which gathers each call's batches from one pool of
    every client's examples and keeps the full-data stack of the last client
    set it saw, so repeated full-batch calls stack the data once.
    """

    def __init__(self, clients):
        clients = list(clients)
        if not clients:
            raise UsageError("FederatedProblem needs at least one client")
        dims = {c.dim for c in clients}
        if len(dims) != 1:
            raise DimensionError(f"clients disagree on dimension: {sorted(dims)}")
        widths = {c.features.shape[1] for c in clients if c.data_size is not None}
        if len(widths) > 1:
            raise DimensionError(f"clients disagree on input width: {sorted(widths)}")
        self.clients = clients
        self.dim = clients[0].dim
        self._pool = None  # every client's examples in one array, built on first use
        self._full_stack = (None, None, None)

    @property
    def n(self) -> int:
        return len(self.clients)

    def value(self, x) -> float:
        total = 0.0
        for c in self.clients:
            total += c.value(x)
        return total / self.n

    def stacked_grads(self, idx, Y, batches) -> np.ndarray:
        """Gradients of clients ``idx`` at the rows of ``Y`` (m, dim), row j on
        ``batches[j]``: an integer index array into that client's examples, in
        ``[0, data_size)``, or None for all of them. Returns (m, dim).

        Row j is bit-equal to ``clients[idx[j]].stoch_grad(Y[j], batches[j])``.
        Supervised clients take one stacked kernel call per group of equal
        batch length (grouping, not padding, keeps each row's reduction
        length); data-free clients are evaluated row by row. A non-finite
        gradient raises NumericError naming the lowest such client.
        """
        G = np.empty(Y.shape)
        groups = {}
        for row, (i, batch) in enumerate(zip(idx, batches)):
            c = self.clients[i]
            if c.data_size is None:
                G[row] = c.stoch_grad(Y[row], batch)
                continue
            n = c.data_size if batch is None else len(batch)
            groups.setdefault((c._kernel, c._shapes, c.l2_decay, n), []).append(row)
        # overflow here shows up as a non-finite gradient, checked below
        with np.errstate(over="ignore", invalid="ignore"):
            for (_, _, l2, _), rows in groups.items():
                sel = slice(None) if len(rows) == len(G) else rows
                X, y = self._stack(idx, rows, batches)
                g = self.clients[idx[rows[0]]]._data_grad(X, y, Y[sel])
                if l2:
                    g += l2 * Y[sel]
                G[sel] = g
        finite = np.isfinite(G)
        if not finite.all():
            row = int(np.flatnonzero(~finite.all(axis=1))[0])
            raise NumericError(
                f"non-finite gradient from client {self.clients[idx[row]].client_id!r}")
        return G

    def _stack(self, idx, rows, batches):
        """Stacked (X, y) batches of clients ``idx[rows]``, gathered from the
        data pool in one take; a full-data stack is kept for the next call."""
        key = tuple(int(idx[r]) for r in rows)
        full = all(batches[r] is None for r in rows)
        if full and self._full_stack[0] == key:
            return self._full_stack[1:]
        if self._pool is None:
            data = [c for c in self.clients if c.data_size is not None]
            starts = np.cumsum([0] + [c.data_size or 0 for c in self.clients])
            self._pool = (np.concatenate([c.features for c in data]),
                          np.concatenate([c.labels for c in data]), starts)
        pool_X, pool_y, starts = self._pool
        take = np.stack([np.arange(self.clients[i].data_size) if batches[r] is None
                         else batches[r] for i, r in zip(key, rows)])
        take += starts[list(key)][:, None]
        X, y = pool_X.take(take, axis=0), pool_y.take(take)
        if full:
            self._full_stack = (key, X, y)
        return X, y

    def client_grads(self, x):
        n = self.n
        return list(self.stacked_grads(range(n), np.broadcast_to(x, (n,) + x.shape), [None] * n))

    def grad(self, x) -> np.ndarray:
        return mean_reduce(self.client_grads(x))

    def hvp(self, x, v) -> np.ndarray:
        return mean_reduce([c.hvp(x, v) for c in self.clients])

    def subset(self, indices) -> "FederatedProblem":
        return FederatedProblem([self.clients[i] for i in indices])

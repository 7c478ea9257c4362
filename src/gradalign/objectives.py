"""Client objectives: exact quadratics, logistic regression, and a tanh MLP.

Quadratics carry analytic gradients and Hessian-vector products and serve as
exact oracles for the theorem checks. Supervised clients get hand-written
backprop gradients (see :mod:`gradalign.kernels`); their Hessian-vector
products are central differences of those gradients, taken for many clients
and directions at once by :meth:`FederatedProblem.hvps`. All objectives are
immutable after construction; minibatch sampling state belongs to the caller.
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

    def _checked(self, g: np.ndarray) -> np.ndarray:
        if not np.all(np.isfinite(g)):
            raise NumericError(f"non-finite gradient from client {self.client_id!r}")
        return g


class QuadraticClient(ClientObjective):
    """f(x) = 0.5 x'Ax + b'x with symmetric A; gradients and HVPs are exact."""

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
        X = np.asarray(features, dtype=np.float64)
        y = np.ascontiguousarray(labels, dtype=np.int64)
        if X.ndim != 2 or y.ndim != 1 or X.shape[0] != y.shape[0]:
            raise DimensionError(f"data shapes off: X {X.shape}, y {y.shape}")
        if l2_decay < 0:
            raise UsageError("l2_decay must be >= 0")
        self.features = np.asfortranarray(X)  # (n, d), feature-major (see kernels)
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
        return self.features.T.take(batch, axis=1).T, self.labels[batch]

    def _unpack(self, x):
        """Views of the parameter blocks of ``x`` (..., dim); leading axes stay."""
        lead = x.shape[:-1]
        return [x[..., lo:hi].reshape(lead + shape) for lo, hi, shape in self._blocks]

    def _data_grad(self, X, y, x):
        """Gradient of the data term at ``x`` (..., dim) on data X (..., n, d)."""
        _, *grads = getattr(kernels, self._kernel)(X, y, *self._unpack(x))
        return np.concatenate([g.reshape(x.shape[:-1] + (-1,)) for g in grads], axis=-1)

    def value(self, x):
        return self._objective(
            getattr(kernels, self._kernel)(self.features, self.labels, *self._unpack(x))[0], x)

    def _objective(self, loss, x):
        """The objective at ``x`` from the kernel's data loss there."""
        return loss + 0.5 * self.l2_decay * float(x @ x)

    def stoch_grad(self, x, batch=None):
        X, y = self._slice(batch)
        g = self._data_grad(X, y, x)
        if self.l2_decay:
            g += self.l2_decay * x
        return self._checked(g)

    def logits(self, x, X=None):
        raise NotImplementedError


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
    one gather and one compute step. :meth:`gather` takes the batches of any
    number of steps from one pool of every client's examples, one ``take`` per
    group; :meth:`gathered_grads` runs one step's kernel calls. A round
    gathers all its local steps at once, and :meth:`stacked_grads` is the
    one-step case.

    Pool layout. The pool holds every client's examples once, feature-major:
    a (d, N) array whose rows are features and whose columns are examples,
    in blocks of one full-data group each (supervised clients of one kind and
    size, ascending), so a group's all-clients stack (``_all_stacks``) is a
    view of its block. Gathered batches are taken along the example axis.
    Every stack handed to the kernels is (m, n, d) over feature-major memory.
    Besides the all-clients stacks, the full-data stacks of the last gather
    that took stacks of distinct clients (a round's participants) are kept;
    any other full-data rows (repeated clients, as in :meth:`hvps`) are taken
    from the all-clients stack afresh.

    Client objectives are immutable, so the problem also keeps the full-data
    gradients of the last point it was asked about, keyed on the bytes of
    ``x`` (-0.0 and +0.0 are different points). :meth:`full_grads` computes
    only the clients it does not hold at ``x``; evaluation, round anchors and
    :meth:`client_grads` all go through it, so a round anchored where the
    last evaluation was made takes no new gradients.
    Every Hessian-vector product goes through :meth:`hvps`.
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
        # supervised clients of one kind (kernel, shapes, l2) share stacked calls
        kinds = {}
        self._kinds = [None if c.data_size is None else
                       kinds.setdefault((c._kernel, c._shapes, c.l2_decay), len(kinds))
                       for c in clients]
        groups = {}  # (kind, size) -> clients, ascending: the full-data groups
        for i, (c, kind) in enumerate(zip(clients, self._kinds)):
            if kind is not None:
                groups.setdefault((kind, c.data_size), []).append(i)
        self._groups = {key: tuple(members) for key, members in groups.items()}
        self._pool = None  # (features (d, N), labels, client starts), built on first use
        self._all_stacks = {}  # group -> full-data (X, y) of all its clients, pool views
        self._full_stacks = {}  # client tuple -> full-data (X, y) kept from the last gather
        self._held_x = None  # bytes of the point whose full-data gradients are held
        self._held = {}  # client -> read-only full-data gradient row at that point

    @property
    def n(self) -> int:
        return len(self.clients)

    def value(self, x) -> float:
        """Mean objective at ``x``: one stacked kernel call per full-data
        group, then the client values summed in ascending client order, so
        the result is bitwise the mean of ``clients[i].value(x)``."""
        losses = {}
        for key, members in self._groups.items():
            c = self.clients[members[0]]
            X, y = self._full_stack(key, members)
            loss = getattr(kernels, c._kernel)(
                X, y, *c._unpack(np.broadcast_to(x, (len(members),) + x.shape)))[0]
            losses.update(zip(members, loss.tolist()))
        total = 0.0
        for i, c in enumerate(self.clients):
            total += c.value(x) if i not in losses else c._objective(losses[i], x)
        return total / self.n

    def stacked_grads(self, idx, Y, batches) -> np.ndarray:
        """Gradients of clients ``idx`` at the rows of ``Y`` (m, dim), row j on
        ``batches[j]``: an integer index array into that client's examples, in
        ``[0, data_size)``, or None for all of them. Returns (m, dim).

        Row j is bit-equal to ``clients[idx[j]].stoch_grad(Y[j], batches[j])``.
        This is the one-step case of :meth:`gather` then :meth:`gathered_grads`.
        """
        return self.gathered_grads(idx, Y, self.gather(idx, [batches])[0])

    def gather(self, idx, steps):
        """Data of clients ``idx`` for a sequence of steps, gathered at once.

        ``steps[k][j]`` is client ``idx[j]``'s batch at step k, as in
        :meth:`stacked_grads`. Returns one entry per step for
        :meth:`gathered_grads`. Supervised rows are grouped by kernel, shapes,
        l2 and batch length (grouping, not padding, keeps each row's reduction
        length); each group takes the batches of all its steps from the data
        pool with one ``take``, step-major, so a step's rows are one contiguous
        slice of it. A step whose group rows all use their full data uses a
        full-data stack of those clients instead (see the class docstring).
        Data-free rows keep their batch for a row-by-row call.
        """
        clients, kinds = self.clients, self._kinds
        plans = [([], []) for _ in steps]  # per step: data-free (row, batch), kernel parts
        pending = {}  # group key -> [(step, rows)] for one take
        full = {}  # (group key, client tuple) -> full-data stack
        for k, batches in enumerate(steps):
            groups = {}
            for row, (i, batch) in enumerate(zip(idx, batches)):
                kind = kinds[i]
                if kind is None:
                    plans[k][0].append((row, batch))
                    continue
                n = clients[i].data_size if batch is None else len(batch)
                groups.setdefault((kind, n), []).append(row)
            for key, rows in groups.items():
                if any(batches[r] is not None for r in rows):
                    pending.setdefault(key, []).append((k, rows))
                    continue
                members = tuple(int(idx[r]) for r in rows)
                if (key, members) not in full:
                    full[key, members] = self._full_stack(key, members)
                plans[k][1].append((rows, *full[key, members]))
        taken = {members: stack for (key, members), stack in full.items()
                 if members != self._groups[key] and len(set(members)) == len(members)}
        if taken:
            self._full_stacks = taken
        for entries in pending.values():
            X, y = self._take([int(idx[r]) for _, rows in entries for r in rows],
                              [steps[k][r] for k, rows in entries for r in rows])
            lo = 0
            for k, rows in entries:
                hi = lo + len(rows)
                plans[k][1].append((rows, X[lo:hi], y[lo:hi]))
                lo = hi
        return plans

    def _data(self):
        """The pool: every client's examples feature-major (d, N), their
        labels, and each client's first column. Built on first use, with
        each full-data group's all-clients stack as a view of its block."""
        if self._pool is None:
            order = [i for members in self._groups.values() for i in members]
            X = np.concatenate([self.clients[i].features.T for i in order], axis=1)
            y = np.concatenate([self.clients[i].labels for i in order])
            starts = np.zeros(self.n, dtype=np.int64)
            lo = 0
            for (kind, size), members in self._groups.items():
                m, hi = len(members), lo + len(members) * size
                starts[list(members)] = lo + size * np.arange(m)
                self._all_stacks[kind, size] = (
                    X[:, lo:hi].reshape(-1, m, size).transpose(1, 2, 0),
                    y[lo:hi].reshape(m, size))
                lo = hi
            self._pool = X, y, starts
        return self._pool

    def _full_stack(self, key, members):
        """Full-data (X, y) of clients ``members`` of group ``key``: the
        group's all-clients stack, the kept stack of those clients, or their
        rows taken from the all-clients stack."""
        self._data()
        X, y = self._all_stacks[key]
        if members == self._groups[key]:
            return X, y
        if members in self._full_stacks:
            return self._full_stacks[members]
        pos = np.searchsorted(self._groups[key], members)
        return X.transpose(2, 0, 1)[:, pos].transpose(1, 2, 0), y[pos]

    def _take(self, members, batches):
        """Stacked (X, y) of ``batches`` (None: all examples) of clients
        ``members``, taken along the pool's example axis in one take; X is
        (m, n, d) over feature-major memory."""
        pool_X, pool_y, starts = self._data()
        take = np.concatenate([np.arange(self.clients[i].data_size) if b is None else b
                               for i, b in zip(members, batches)]).reshape(len(members), -1)
        take += starts[list(members)][:, None]
        return pool_X.take(take, axis=1).transpose(1, 2, 0), pool_y.take(take)

    def gathered_grads(self, idx, Y, plan) -> np.ndarray:
        """Gradients of clients ``idx`` at the rows of ``Y`` (m, dim) on one
        step's data from :meth:`gather`: one stacked kernel call per group,
        then L2, then one fused finite check. A non-finite gradient raises
        NumericError naming the lowest such client.
        """
        free, parts = plan
        G = np.empty(Y.shape)
        for row, batch in free:
            G[row] = self.clients[idx[row]].stoch_grad(Y[row], batch)
        # overflow here shows up as a non-finite gradient, checked below
        with np.errstate(over="ignore", invalid="ignore"):
            for rows, X, y in parts:
                sel = slice(None) if len(rows) == len(G) else rows
                c = self.clients[idx[rows[0]]]
                g = c._data_grad(X, y, Y[sel])
                if c.l2_decay:
                    g += c.l2_decay * Y[sel]
                G[sel] = g
        finite = np.isfinite(G)
        if not finite.all():
            row = int(np.flatnonzero(~finite.all(axis=1))[0])
            raise NumericError(
                f"non-finite gradient from client {self.clients[idx[row]].client_id!r}")
        return G

    def full_grads(self, idx, x) -> np.ndarray:
        """Full-data gradients of clients ``idx`` at one point ``x``, as a fresh
        (m, dim) array; row j is bit-equal to ``clients[idx[j]].stoch_grad(x,
        None)``. Only the clients not held at ``x`` are computed, with one
        :meth:`stacked_grads` call; the held rows are read-only and replaced
        when another point comes.
        """
        key = x.tobytes()
        if key != self._held_x:
            self._held_x, self._held = key, {}
        held = self._held
        miss = sorted({int(i) for i in idx} - held.keys())
        if miss:
            G = self.stacked_grads(miss, np.broadcast_to(x, (len(miss),) + x.shape),
                                   [None] * len(miss))
            G.flags.writeable = False
            held.update(zip(miss, G))
        return np.stack([held[int(i)] for i in idx])

    def client_grads(self, x):
        return list(self.full_grads(range(self.n), x))

    def grad(self, x) -> np.ndarray:
        return mean_reduce(self.client_grads(x))

    def hvps(self, idx, x, V) -> np.ndarray:
        """Hessian-vector products at one point ``x``: row j is client
        ``idx[j]``'s Hessian applied to ``V[j]`` (m, dim); ``idx`` may repeat
        clients in any order. Data-free rows are exact. Supervised rows are
        central differences with step ``cbrt(eps) * (1 + |x|) / |V[j]|``, all
        evaluated by one :meth:`stacked_grads` call. A zero direction gives a
        zero row.
        """
        if V.shape != (len(idx),) + x.shape:
            raise DimensionError(f"hvps shape mismatch: V {V.shape}, x {x.shape}, {len(idx)} rows")
        H = np.zeros(V.shape)
        scale = _EPS_CBRT * (1.0 + float(np.linalg.norm(x)))
        rows, eps = [], []
        for j, i in enumerate(idx):
            if self._kinds[i] is None:
                H[j] = self.clients[i].hvp(x, V[j])
            # one 1-D norm per row: a norm over an axis can differ in the last bit
            elif (vn := float(np.linalg.norm(V[j]))) != 0.0:
                rows.append(j)
                eps.append(scale / max(vn, 1e-12))
        if rows:
            members = [idx[j] for j in rows] * 2
            eps = np.array(eps)[:, None]
            step = eps * V[rows]
            G = self.stacked_grads(members, np.concatenate([x + step, x - step]),
                                   [None] * len(members))
            H[rows] = (G[:len(rows)] - G[len(rows):]) / (2.0 * eps)
        return H

"""Optimization procedures as pure state-transition functions.

Sequence runners (K sequential steps) drive the ordering-enumeration oracles;
round functions map (server params, problem, config, schedules) to a
:class:`RoundResult`. Conventions that the reduction-lattice and theorem
checks rely on:

* every parameter update goes through ``axpy(-alpha, g, y)``;
* cross-client aggregation is always ``mean_reduce`` over ascending
  participant order;
* SCAFFOLD's correction is applied as ``(g - g_i(x)) + mean_grad(x)`` so the
  K=1 full-batch round collapses to a plain GD step bit-for-bit;
* coupled comparisons reuse minibatch schedules built from identical streams.

All seven round procedures are FedAvg run by one engine, ``_local_round``,
that differs per variant only in whether it first gathers ``grad_i(x)`` (a
second communication) and where it adds the displacement ``-beta*v_i``. The
:data:`VARIANTS` table gives every variant's round, updates per round and
schedule, beta and mu use; the harness and ``AlgoConfig.validate`` read it.

The engine runs the m participants in lockstep, as the algorithms allow: their
iterates are the rows of one ``(m, dim)`` array, each schedule's K batches are
drawn at round start, and each local step is one stacked gradient call
(:meth:`FederatedProblem.stacked_grads`) followed by vectorised displacement,
control-variate, proximal and update terms and one fused divergence guard.
Every row is bit-equal to the participant run alone. A divergence reports the
earliest step and, at that step, the lowest participant.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DivergenceError, UsageError
from .objectives import FederatedProblem
from .params import SeededStream, axpy, mean_reduce

__all__ = [
    "AlgoConfig",
    "RoundResult",
    "VARIANTS",
    "run_sgd_sequence",
    "run_gd_sequence",
    "run_surrogate_gd_sequence",
    "linear_scaled_step",
    "gradalign_round",
    "largebatch_gd_round",
    "fedavg_round",
    "fedga_round",
    "fedga_perstep_round",
    "scaffold_round",
    "fedprox_round",
    "expected_round",
    "run_round",
]

DIVERGENCE_NORM = 1e8


@dataclass(frozen=True)
class AlgoConfig:
    """Algorithm selection plus hyperparameters; unused fields warn at load."""

    variant: str
    alpha: float
    beta: float = 0.0
    local_steps: int = 1
    batch_size: int | None = None  # None = FULL
    mu: float = 0.0

    def validate(self) -> list[str]:
        """Raise on hard errors; return warnings for ignored fields."""
        if self.variant not in VARIANTS:
            raise UsageError(f"unknown variant {self.variant!r}; choose from {tuple(VARIANTS)}")
        for field in ("alpha", "beta", "mu"):
            if not math.isfinite(getattr(self, field)):
                raise UsageError(f"{field} must be finite")
        if not self.alpha > 0:
            raise UsageError("alpha must be > 0")
        if self.beta < 0:
            raise UsageError("beta must be >= 0")
        if self.local_steps < 1:
            raise UsageError("local_steps must be >= 1")
        if self.batch_size is not None and self.batch_size < 1:
            raise UsageError("batch_size must be >= 1 or full")
        if self.mu < 0:
            raise UsageError("mu must be >= 0")
        warnings = []
        entry = VARIANTS[self.variant]
        if self.beta != 0.0 and entry.displace is None:
            warnings.append(f"beta is ignored by variant {self.variant!r}")
        if self.mu != 0.0 and not entry.uses_mu:
            warnings.append(f"mu is ignored by variant {self.variant!r}")
        return warnings


@dataclass(frozen=True)
class RoundResult:
    """Post-round server parameters plus per-client traces."""

    server_params: np.ndarray
    per_client_final: tuple
    participants: tuple
    comm_rounds_used: int
    displacement_norms: np.ndarray


def _guard(x: np.ndarray, algorithm: str, round_index, step):
    with np.errstate(over="ignore", invalid="ignore"):
        nrm = float(np.linalg.norm(x))
    if not np.isfinite(nrm) or nrm > DIVERGENCE_NORM:
        where = f"round {round_index}, " if round_index is not None else ""
        raise DivergenceError(
            f"{algorithm} diverged ({where}step {step}): iterate norm {nrm:.3e}",
            algorithm=algorithm,
            round_index=round_index,
            step=step,
        )
    return x


# squared row norms below this pass the lockstep guard without the exact norm;
# the 1% margin covers the rounding gap between the two ways of summing
_GUARD_SQ = (0.99 * DIVERGENCE_NORM) ** 2


def _guard_rows(Y: np.ndarray, algorithm: str, round_index, step):
    """``_guard`` on every row of ``Y``, lowest row first, from one fused pass."""
    with np.errstate(over="ignore", invalid="ignore"):
        sq = np.einsum("ij,ij->i", Y, Y)
    for row in np.flatnonzero(~(sq < _GUARD_SQ)):
        _guard(Y[row], algorithm, round_index, step)


# ---------------------------------------------------------------------------
# sequence procedures
# ---------------------------------------------------------------------------


def run_sgd_sequence(objectives, order, x0, alpha, round_index=None):
    """K sequential steps x <- x - alpha * grad_{a_t}(x) in the given order."""
    objectives = list(objectives)
    k = len(objectives)
    if k < 1:
        raise UsageError("need at least one objective")
    order = list(order)
    if sorted(order) != list(range(k)):
        raise UsageError(f"order must be a permutation of 0..{k - 1}")
    x = x0
    for t, idx in enumerate(order):
        x = axpy(-alpha, objectives[idx].grad(x), x)
        _guard(x, "sgd_seq", round_index, t)
    return x


def run_gd_sequence(objectives_or_problem, x0, alpha, K, round_index=None):
    """K steps of GD on the mean objective of the multiset."""
    problem = _as_problem(objectives_or_problem)
    if K < 1:
        raise UsageError("K must be >= 1")
    x = x0
    for t in range(K):
        x = axpy(-alpha, problem.grad(x), x)
        _guard(x, "gd_seq", round_index, t)
    return x


def run_surrogate_gd_sequence(objectives_or_problem, x0, alpha, K, round_index=None):
    """K GD steps on the mean objective plus (alpha/2) times the gradient
    variance of the multiset."""
    from .regularizer import regularizer_report  # local import breaks a cycle

    problem = _as_problem(objectives_or_problem)
    if K < 1:
        raise UsageError("K must be >= 1")
    x = x0
    half_alpha = alpha / 2.0
    for t in range(K):
        g = problem.grad(x) + half_alpha * regularizer_report(problem, x).grad_r
        x = axpy(-alpha, g, x)
        _guard(x, "surrogate_gd", round_index, t)
    return x


def linear_scaled_step(objectives, x0, alpha, round_index=None):
    """One update x <- x - alpha * sum_i grad_{a_i}(x - (alpha/2) sum_{j!=i} grad_{a_j}(x))."""
    objectives = list(objectives)
    k = len(objectives)
    if k < 1:
        raise UsageError("need at least one objective")
    grads0 = [o.grad(x0) for o in objectives]
    total = np.zeros_like(x0)
    for g in grads0:
        total += g
    update = np.zeros_like(x0)
    for i, obj in enumerate(objectives):
        point = axpy(-alpha / 2.0, total - grads0[i], x0)
        update += obj.grad(point)
    x = axpy(-alpha, update, x0)
    return _guard(x, "linear_scaled", round_index, 0)


def _sgd_seq_round(cfg, clients, x, schedules, stream, round_index):
    """K passes over the participants, each in a fresh order drawn from
    ``stream``, one stochastic step per client visit."""
    for k in range(cfg.local_steps):
        order = stream.derive("order", k).generator().permutation(len(clients))
        for t, j in enumerate(order):
            batch = schedules[j].next_batch() if schedules[j] is not None else None
            x = axpy(-cfg.alpha, clients[j].stoch_grad(x, batch), x)
            _guard(x, "sgd_seq", round_index, k * len(clients) + t)
    return x


def _as_problem(objectives_or_problem) -> FederatedProblem:
    if isinstance(objectives_or_problem, FederatedProblem):
        return objectives_or_problem
    return FederatedProblem(list(objectives_or_problem))


# ---------------------------------------------------------------------------
# round procedures: one engine, one variant table, thin public wrappers
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _Variant:
    """One row of :data:`VARIANTS`.

    A server-side variant has a ``sequence`` procedure
    ``(cfg, clients, x, schedules, stream, round_index) -> x``. Every other
    variant is a local-step round run by ``_local_round`` and departs from
    FedAvg in two ways only. ``anchor``: gather ``grad_i(x)`` and their mean
    before the local steps, a second communication. ``displace``: where
    ``-beta*v_i`` goes: ``None`` nowhere, ``"start"`` onto the starting
    iterate, ``"step"`` onto every step's evaluation point. An anchored round
    that does not displace adds SCAFFOLD's control variate instead. A
    local-step variant without schedules takes one full-batch step.
    ``updates(m, K)`` counts parameter updates per round for m participants.
    """

    updates: Callable[[int, int], int]
    schedules: bool = False
    anchor: bool = False
    displace: str | None = None
    uses_mu: bool = False
    sequence: Callable | None = None


def _local_round(spec: _Variant, name, problem, x, alpha, beta, K, scheds, part, mu,
                 round_index) -> RoundResult:
    """K local steps per participant from x under ``spec``, then average.
    Nonzero ``mu`` adds FedProx's proximal term ``mu*(y - x)`` to each step.

    The participants step in lockstep: row j of ``Y`` is participant j's
    iterate, and each step takes one stacked gradient call for all rows.
    """
    m = len(part)
    X0 = np.broadcast_to(x, (m,) + x.shape)
    norms = np.zeros(m)
    if spec.anchor:
        G0 = problem.stacked_grads(part, X0, [None] * m)
        gbar = mean_reduce(G0)
        V = gbar - G0
        scale = abs(beta) if spec.displace else alpha
        norms = np.array([scale * float(np.linalg.norm(v)) for v in V])
    shift = spec.displace if beta != 0.0 else None
    batches = [s.take(K) if s is not None else [None] * K for s in scheds]

    Y = axpy(-beta, V, X0) if shift == "start" else X0
    for k in range(K):
        point = axpy(-beta, V, Y) if shift == "step" else Y
        G = problem.stacked_grads(part, point, [b[k] for b in batches])
        if spec.anchor and not spec.displace:
            G = (G - G0) + gbar
        if mu != 0.0:
            G = G + mu * (Y - x)
        Y = axpy(-alpha, G, Y)
        _guard_rows(Y, name, round_index, k)
    finals = tuple(Y)
    return RoundResult(
        server_params=mean_reduce(finals),
        per_client_final=finals,
        participants=tuple(part),
        comm_rounds_used=2 if spec.anchor else 1,
        displacement_norms=norms,
    )


VARIANTS = {
    "sgd_seq": _Variant(lambda m, k: m * k, schedules=True, sequence=_sgd_seq_round),
    "gd_seq": _Variant(lambda m, k: k, sequence=lambda cfg, clients, x, s, stream, r:
                       run_gd_sequence(clients, x, cfg.alpha, cfg.local_steps, round_index=r)),
    "surrogate_gd": _Variant(lambda m, k: k, sequence=lambda cfg, clients, x, s, stream, r:
                             run_surrogate_gd_sequence(clients, x, cfg.alpha, cfg.local_steps,
                                                       round_index=r)),
    "linear_scaled": _Variant(lambda m, k: 1, sequence=lambda cfg, clients, x, s, stream, r:
                              linear_scaled_step(clients, x, cfg.alpha, round_index=r)),
    "gradalign": _Variant(lambda m, k: m, anchor=True, displace="step"),
    "fedavg": _Variant(lambda m, k: m * k, schedules=True),
    "fedga": _Variant(lambda m, k: m * k, schedules=True, anchor=True, displace="start"),
    "fedga_perstep": _Variant(lambda m, k: m * k, schedules=True, anchor=True, displace="step"),
    "scaffold": _Variant(lambda m, k: m * k, schedules=True, anchor=True),
    "fedprox": _Variant(lambda m, k: m * k, schedules=True, uses_mu=True),
    # one server-side modification per round
    "largebatch_gd": _Variant(lambda m, k: 1),
}


def run_round(cfg: AlgoConfig, problem, x, schedules=None, participants=None,
              round_index=None, stream=None) -> RoundResult:
    """One round of cfg.variant; the harness and every ``*_round`` call it.
    ``stream`` is the round stream that ``sgd_seq`` draws its visiting orders from."""
    entry = VARIANTS[cfg.variant]
    part = list(range(problem.n)) if participants is None else sorted(int(i) for i in participants)
    scheds = schedules if schedules is not None else [None] * len(part)
    # an overflow leaves a non-finite or huge iterate, which the guards report
    with np.errstate(over="ignore", invalid="ignore"):
        if entry.sequence is None:
            return _local_round(entry, cfg.variant, problem, x, cfg.alpha, cfg.beta,
                                cfg.local_steps if entry.schedules else 1, scheds, part,
                                cfg.mu if entry.uses_mu else 0.0, round_index)
        x = entry.sequence(cfg, [problem.clients[i] for i in part], x, scheds, stream,
                           round_index)
    return RoundResult(
        server_params=x,
        per_client_final=(),
        participants=tuple(part),
        comm_rounds_used=1,
        displacement_norms=np.zeros(len(part)),
    )


def largebatch_gd_round(problem, x, alpha, participants=None, round_index=None):
    """One parallel GD step: clients step from x with their own gradients,
    the server averages (equal to a GD step on the participant mean)."""
    return run_round(AlgoConfig("largebatch_gd", alpha), problem, x, None, participants,
                     round_index)


def gradalign_round(problem, x, alpha, beta, participants=None, round_index=None):
    """Displaced-gradient round: the iterate stays at x, each client's
    gradient is evaluated at x - beta*v_i with v_i = mean_grad(x) - grad_i(x)."""
    return run_round(AlgoConfig("gradalign", alpha, beta), problem, x, None, participants,
                     round_index)


def fedavg_round(problem, x, alpha, K, schedules=None, participants=None, round_index=None):
    """K local stochastic steps per client from x, then average."""
    return run_round(AlgoConfig("fedavg", alpha, local_steps=K), problem, x, schedules,
                     participants, round_index)


def fedga_round(problem, x, alpha, beta, K, schedules=None, participants=None,
                round_index=None):
    """Displacement applied once at the start of the round, then K plain
    local steps; the server averages the finals without reverting the
    displacements (they sum to zero across participants)."""
    return run_round(AlgoConfig("fedga", alpha, beta, K), problem, x, schedules,
                     participants, round_index)


def fedga_perstep_round(problem, x, alpha, beta, K, schedules=None, participants=None,
                        round_index=None):
    """Per-step displacement variant: iterates stay undisplaced, every local
    gradient is evaluated at y - beta*v_i."""
    return run_round(AlgoConfig("fedga_perstep", alpha, beta, K), problem, x, schedules,
                     participants, round_index)


def scaffold_round(problem, x, alpha, K, schedules=None, participants=None, round_index=None):
    """Control-variate round: local steps use
    (stoch_grad(y) - grad_i(x)) + mean_grad(x), variates computed among the
    participating clients only."""
    return run_round(AlgoConfig("scaffold", alpha, local_steps=K), problem, x, schedules,
                     participants, round_index)


def fedprox_round(problem, x, alpha, K, mu, schedules=None, participants=None,
                  round_index=None):
    """Inexact proximal local steps y <- y - alpha*(stoch_grad(y) + mu*(y - x))."""
    if mu < 0:
        raise UsageError("mu must be >= 0")
    return run_round(AlgoConfig("fedprox", alpha, local_steps=K, mu=mu), problem, x,
                     schedules, participants, round_index)


def expected_round(round_fn, repeats: int, stream: SeededStream) -> np.ndarray:
    """Mean server result of ``round_fn(stream)`` over independent schedule
    draws. Deterministic rounds need repeats=1."""
    if repeats < 1:
        raise UsageError("repeats must be >= 1")
    servers = [round_fn(stream.derive("repeat", r)).server_params for r in range(repeats)]
    return mean_reduce(servers)

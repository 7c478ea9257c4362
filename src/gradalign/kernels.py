"""Supervised-model kernels: vectorized numpy value/gradient and logits.

The value/gradient kernels accept leading stack axes: ``X (..., n, d)``,
``y (..., n)`` and parameters with the same leading axes, one problem per
stack entry. A federated round calls them once per local step for all its
participants (once per batch length, so a ragged tail batch adds one call),
K times per round instead of K*m, and they dominate experiment runtime.
Losses returned here are the data term only; L2 decay is added by the
objective layer on the full parameter vector.

Layout contract:

- ``X`` is ``(..., n, d)``, best a view of feature-major memory, whose
  example axis has unit stride: the data pool of ``FederatedProblem``, the
  clients' features and the evaluation sets are held that way. Any other
  ``X`` is copied into that layout first, so the bits of a call do not depend
  on how ``X`` is laid out (BLAS would otherwise see other transpose flags).
- Activations are class-major across the whole stack (hidden-major for the
  MLP's hidden layer): the matmuls write each entry's ``(C, n)`` block into
  one ``(C, m*n)`` buffer, so the softmax max, ``exp``, class sum and divide,
  the label scatter, the bias add and ``1 - a*a`` each run as one numpy call
  over every example of every entry.
- Each stack entry computes exactly what the 2-D call on that entry
  computes, bit for bit. A product whose result is a vector (a dimension of
  1) is taken on contiguous copies, because numpy hands it to BLAS gemv with
  the vector's stride, and the result depends on that stride. The class sum
  of a single example adds the classes in order, as numpy does for every
  wider call.
- Elementwise steps work in place on the fresh arrays the matmuls return, in
  the same order as the plain expressions, and no input is modified.

Where the bits changed: the class-major layout replaced row-major
activations ``(..., n, C)``. It takes every matmul in the other orientation
(``W^T @ X^T`` for ``X @ W``; ``X^T @ P^T`` for ``X^T @ P``), adds each
example's classes in order where numpy summed them pairwise, and sums the
bias gradients pairwise along the examples where they were added example by
example. Gradients, losses and the metrics built from them moved in their
low-order bits once, with that change (see CHANGES.md); accuracies did not.
"""

from __future__ import annotations

import numpy as np

BACKEND = "numpy"  # the only kernel backend; reported by benchmark runs


def _matmul(a, b, out=None):
    """``a @ b`` over the stack axis, with bits that do not depend on the
    operands' strides. A product whose result is a vector goes to BLAS gemv
    with the vector's stride as its increment, and gemv's result depends on
    it, so such a product is taken on contiguous copies."""
    if a.shape[-2] == 1 or b.shape[-1] == 1:
        r = np.ascontiguousarray(a) @ np.ascontiguousarray(b)
        if out is None:
            return r
        out[...] = r
        return out
    return np.matmul(a, b, out=out)


def _merged(a, core):
    """``a`` with its stack axes merged into one leading axis; one entry
    has ``core`` axes."""
    return a.reshape((-1,) + a.shape[a.ndim - core:])


def _examples_last(X):
    """``X`` (..., n, d) as (m, d, n) with unit stride along the examples: a
    view when ``X`` is feature-major, else a copy."""
    X = _merged(X, 2)
    XT = X.transpose(0, 2, 1)
    if X.shape[1] > 1 and X.strides[1] != X.itemsize:
        return np.ascontiguousarray(XT)
    return XT


def _unstack(lead, loss, *grads):
    """Results over the merged stack axis put back on the stack axes
    ``lead``; a 2-D call gets a float loss and unstacked gradients."""
    if not lead:
        return (float(loss[0]), *(g[0] for g in grads))
    if len(lead) == 1:
        return (loss, *grads)
    return (loss.reshape(lead), *(g.reshape(lead + g.shape[1:]) for g in grads))


def _affine(W, b, A):
    """``W^T @ A + b`` per stack entry, for ``W`` (m, k, R), ``b`` (m, R) and
    ``A`` (m, k, n), as one row-major (R, m, n) buffer: row r holds output
    unit r of every example of every entry."""
    Z = np.empty((W.shape[2], A.shape[0], A.shape[2]))
    _matmul(W.transpose(0, 2, 1), A, out=Z.transpose(1, 0, 2))
    Z += b.T[:, :, None]
    return Z


def _class_sum(P):
    """Column sums of row-major ``P`` (C, M), adding the class rows in order:
    numpy does that for M > 1, but sums a single column pairwise."""
    if P.shape[1] == 1:
        return np.add.accumulate(P, axis=0)[-1]
    return np.add.reduce(P, axis=0)


def _softmax_xent(Z, y):
    """Mean cross-entropy per entry at labels ``y`` (m, n) of class-major
    logits ``Z`` (C, m, n); turns ``Z`` in place into the logit gradient
    ``(softmax - onehot(y)) / n``."""
    n = Z.shape[2]
    P = Z.reshape(Z.shape[0], -1)  # a view: Z is a fresh C-order array
    P -= P.max(axis=0)
    np.exp(P, out=P)
    P /= _class_sum(P)
    flat = P.reshape(-1)
    at_y = y.reshape(-1) * P.shape[1]  # flat index of each example's true class
    at_y += np.arange(P.shape[1])
    with np.errstate(divide="ignore"):
        loss = np.add.reduce(np.log(flat[at_y]).reshape(y.shape), axis=1)
    loss /= -n  # the mean of -log p, bit for bit
    flat[at_y] -= 1.0
    P /= n
    return loss


def _examples_sum(P):
    """Sum over the examples of row-major ``P`` (R, m, n), as (m, R)."""
    return np.add.reduce(P, axis=2).T


def logistic_value_grad(X, y, W, b):
    """Mean cross-entropy and its gradient for softmax regression.

    Returns (loss, gW, gb) for logits ``X @ W + b``; ``loss`` is a float for a
    2-D ``X`` and an array over the stack axes otherwise. A fully-underflowed
    true-class probability yields an infinite loss (divergent iterates).
    """
    XT = _examples_last(X)
    P = _affine(_merged(W, 2), _merged(b, 1), XT)
    loss = _softmax_xent(P, _merged(y, 1))
    return _unstack(X.shape[:-2], loss, _matmul(XT, P.transpose(1, 2, 0)), _examples_sum(P))


def mlp_value_grad(X, y, W1, b1, W2, b2):
    """Mean cross-entropy and gradients for input -> tanh -> softmax.

    Returns (loss, gW1, gb1, gW2, gb2), stacked like
    :func:`logistic_value_grad`. A fully-underflowed true-class probability
    yields an infinite loss (divergent iterates).
    """
    XT, W2 = _examples_last(X), _merged(W2, 2)
    A = _affine(_merged(W1, 2), _merged(b1, 1), XT)
    np.tanh(A, out=A)
    A_t = A.transpose(1, 0, 2)
    P = _affine(W2, _merged(b2, 1), A_t)
    loss = _softmax_xent(P, _merged(y, 1))
    gW2 = _matmul(A_t, P.transpose(1, 2, 0))
    dH = np.empty(A.shape)
    _matmul(W2, P.transpose(1, 0, 2), out=dH.transpose(1, 0, 2))
    # 1 - a*a, formed in A's buffer now that gW2 no longer needs A
    np.multiply(A, A, out=A)
    np.subtract(1.0, A, out=A)
    dH *= A
    return _unstack(X.shape[:-2], loss, _matmul(XT, dH.transpose(1, 2, 0)), _examples_sum(dH),
                    gW2, _examples_sum(P))


def logistic_logits(X, W, b):
    """Logits ``X @ W + b`` (n, C), a view of class-major memory."""
    return _affine(W[None], b[None], _examples_last(X))[:, 0].T


def mlp_logits(X, W1, b1, W2, b2):
    """Logits (n, C) of input -> tanh -> linear, a view of class-major memory."""
    A = _affine(W1[None], b1[None], _examples_last(X))
    np.tanh(A, out=A)
    return _affine(W2[None], b2[None], A.transpose(1, 0, 2))[:, 0].T

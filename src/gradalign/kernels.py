"""Supervised-model kernels: vectorized numpy value/gradient and logits.

The value/gradient kernels accept leading stack axes: ``X (..., n, d)``,
``y (..., n)`` and parameters with the same leading axes, one problem per
stack entry. A federated round calls them once per local step for all its
participants (once per batch length, so a ragged tail batch adds one call),
K times per round instead of K*m, and they dominate experiment runtime. Each
stack entry computes exactly what the 2-D call on that entry computes, bit for
bit. Losses returned here are the data term only; L2 decay is added by the
objective layer on the full parameter vector.
"""

from __future__ import annotations

import numpy as np

BACKEND = "numpy"  # the only kernel backend; reported by benchmark runs


def _softmax_rows(z):
    z = z - z.max(axis=-1, keepdims=True)
    p = np.exp(z)
    p /= p.sum(axis=-1, keepdims=True)
    return p


def _xent_residual(p, y):
    """Mean cross-entropy of probabilities ``p`` at labels ``y``; turns ``p``
    in place into the logit gradient ``(p - onehot(y)) / n``."""
    n = p.shape[-2]
    flat = p.reshape(-1, p.shape[-1])  # a view: p is a fresh C-order array
    rows, cols = np.arange(flat.shape[0]), y.reshape(-1)
    with np.errstate(divide="ignore"):
        loss = -np.log(flat[rows, cols]).reshape(y.shape).mean(axis=-1)
    flat[rows, cols] -= 1.0
    p /= n
    return loss if loss.ndim else float(loss)


def logistic_value_grad(X, y, W, b):
    """Mean cross-entropy and its gradient for softmax regression.

    Returns (loss, gW, gb) for logits ``X @ W + b``; ``loss`` is a float for a
    2-D ``X`` and an array over the stack axes otherwise. A fully-underflowed
    true-class probability yields an infinite loss (divergent iterates).
    """
    p = _softmax_rows(X @ W + b[..., None, :])
    loss = _xent_residual(p, y)
    return loss, X.swapaxes(-1, -2) @ p, p.sum(axis=-2)


def mlp_value_grad(X, y, W1, b1, W2, b2):
    """Mean cross-entropy and gradients for input -> tanh -> softmax.

    Returns (loss, gW1, gb1, gW2, gb2), stacked like
    :func:`logistic_value_grad`. A fully-underflowed true-class probability
    yields an infinite loss (divergent iterates).
    """
    a = np.tanh(X @ W1 + b1[..., None, :])
    p = _softmax_rows(a @ W2 + b2[..., None, :])
    loss = _xent_residual(p, y)
    gW2 = a.swapaxes(-1, -2) @ p
    gb2 = p.sum(axis=-2)
    dh = (p @ W2.swapaxes(-1, -2)) * (1.0 - a * a)
    return loss, X.swapaxes(-1, -2) @ dh, dh.sum(axis=-2), gW2, gb2


def logistic_logits(X, W, b):
    return X @ W + b


def mlp_logits(X, W1, b1, W2, b2):
    return np.tanh(X @ W1 + b1) @ W2 + b2

"""Supervised-model kernels: vectorized numpy value/gradient and logits.

The minibatch value/gradient kernels below run K*m times per federated round
and dominate experiment runtime. Losses returned here are the data term only;
L2 decay is added by the objective layer on the full parameter vector.
"""

from __future__ import annotations

import numpy as np

BACKEND = "numpy"  # the only kernel backend; reported by benchmark runs


def _softmax_rows(z):
    z = z - z.max(axis=1, keepdims=True)
    p = np.exp(z)
    p /= p.sum(axis=1, keepdims=True)
    return p


def logistic_value_grad(X, y, W, b):
    """Mean cross-entropy and its gradient for softmax regression.

    Returns (loss, gW, gb) for logits ``X @ W + b``. A fully-underflowed
    true-class probability yields an infinite loss (divergent iterates).
    """
    n = X.shape[0]
    p = _softmax_rows(X @ W + b)
    rows = np.arange(n)
    with np.errstate(divide="ignore"):
        loss = float(-np.log(p[rows, y]).mean())
    p[rows, y] -= 1.0
    p /= n
    return loss, X.T @ p, p.sum(axis=0)


def mlp_value_grad(X, y, W1, b1, W2, b2):
    """Mean cross-entropy and gradients for input -> tanh -> softmax.

    Returns (loss, gW1, gb1, gW2, gb2). A fully-underflowed true-class
    probability yields an infinite loss (divergent iterates).
    """
    n = X.shape[0]
    a = np.tanh(X @ W1 + b1)
    p = _softmax_rows(a @ W2 + b2)
    rows = np.arange(n)
    with np.errstate(divide="ignore"):
        loss = float(-np.log(p[rows, y]).mean())
    p[rows, y] -= 1.0
    p /= n
    gW2 = a.T @ p
    gb2 = p.sum(axis=0)
    dh = (p @ W2.T) * (1.0 - a * a)
    return loss, X.T @ dh, dh.sum(axis=0), gW2, gb2


def logistic_logits(X, W, b):
    return X @ W + b


def mlp_logits(X, W1, b1, W2, b2):
    return np.tanh(X @ W1 + b1) @ W2 + b2

"""Kernel contracts: a saturated softmax gives an infinite loss, a finite
gradient and no numpy warning; a stacked call computes each slice exactly as
the 2-D call on it; the in-place kernels, value+grad and logits, are bitwise
the expression-form reference kernels below and modify no input."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gradalign import kernels

# one example of class 0 whose class-1 logit exceeds the class-0 logit by
# thousands, so p(class 0) underflows to exactly 0
X = np.array([[1.0]])
y = np.array([0], dtype=np.int64)
SATURATING = {
    "logistic": (kernels.logistic_value_grad, (np.array([[-1e4, 1e4]]), np.zeros(2))),
    "mlp": (kernels.mlp_value_grad,
            (np.ones((1, 1)), np.zeros(1), np.array([[-1e4, 1e4]]), np.zeros(2))),
}


@pytest.mark.parametrize("model", sorted(SATURATING))
def test_saturated_loss_is_inf_without_warning(model):
    kernel, params = SATURATING[model]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        loss, *grads = kernel(X, y, *params)
    assert loss == np.inf
    assert all(np.isfinite(g).all() for g in grads)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(model=st.sampled_from(["logistic", "mlp"]), m=st.integers(1, 4), n=st.integers(1, 12),
       d=st.integers(1, 5), c=st.integers(2, 5), h=st.integers(1, 6), seed=st.integers(0, 2**16))
def test_stacked_call_is_bitwise_the_2d_call_per_slice(model, m, n, d, c, h, seed):
    rng = np.random.default_rng(seed)
    X = 3.0 * rng.standard_normal((m, n, d))
    labels = rng.integers(0, c, (m, n))
    if model == "logistic":
        kernel, shapes = kernels.logistic_value_grad, [(d, c), (c,)]
    else:
        kernel, shapes = kernels.mlp_value_grad, [(d, h), (h,), (h, c), (c,)]
    params = [rng.standard_normal((m,) + s) for s in shapes]
    stacked = kernel(X, labels, *params)
    assert stacked[0].shape == (m,)
    for j in range(m):
        flat = kernel(X[j], labels[j], *(p[j] for p in params))
        assert type(flat[0]) is float
        for whole, part in zip(stacked, flat):
            assert whole[j].tobytes() == np.asarray(part).tobytes()


# The kernels as plain expressions, each step a fresh array: the reference the
# in-place kernels must match bit for bit.
def reference_softmax_rows(z):
    z = z - z.max(axis=-1, keepdims=True)
    p = np.exp(z)
    p /= p.sum(axis=-1, keepdims=True)
    return p


def reference_logistic_value_grad(X, y, W, b):
    p = reference_softmax_rows(X @ W + b[..., None, :])
    loss = kernels._xent_residual(p, y)
    return loss, X.swapaxes(-1, -2) @ p, p.sum(axis=-2)


def reference_mlp_value_grad(X, y, W1, b1, W2, b2):
    a = np.tanh(X @ W1 + b1[..., None, :])
    p = reference_softmax_rows(a @ W2 + b2[..., None, :])
    loss = kernels._xent_residual(p, y)
    gW2 = a.swapaxes(-1, -2) @ p
    gb2 = p.sum(axis=-2)
    dh = (p @ W2.swapaxes(-1, -2)) * (1.0 - a * a)
    return loss, X.swapaxes(-1, -2) @ dh, dh.sum(axis=-2), gW2, gb2


@settings(max_examples=80, deadline=None, derandomize=True)
@given(model=st.sampled_from(["logistic", "mlp"]), lead=st.sampled_from([(), (1,), (3,)]),
       n=st.integers(1, 12), d=st.integers(1, 5), c=st.integers(2, 5), h=st.integers(1, 6),
       scale=st.sampled_from([0.1, 3.0, 300.0]), seed=st.integers(0, 2**16))
def test_in_place_kernels_are_bitwise_the_reference(model, lead, n, d, c, h, scale, seed):
    rng = np.random.default_rng(seed)
    X = scale * rng.standard_normal(lead + (n, d))
    labels = rng.integers(0, c, lead + (n,))
    if model == "logistic":
        kernel, reference = kernels.logistic_value_grad, reference_logistic_value_grad
        shapes = [(d, c), (c,)]
    else:
        kernel, reference = kernels.mlp_value_grad, reference_mlp_value_grad
        shapes = [(d, h), (h,), (h, c), (c,)]
    params = [rng.standard_normal(lead + s) for s in shapes]
    inputs = [X, labels, *params]
    before = [a.tobytes() for a in inputs]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = kernel(*inputs)
    want = reference(*inputs)
    assert [a.tobytes() for a in inputs] == before
    assert type(got[0]) is type(want[0])
    for g, w in zip(got, want):
        assert np.asarray(g).tobytes() == np.asarray(w).tobytes()


def reference_logistic_logits(X, W, b):
    return X @ W + b


def reference_mlp_logits(X, W1, b1, W2, b2):
    return np.tanh(X @ W1 + b1) @ W2 + b2


@settings(max_examples=60, deadline=None, derandomize=True)
@given(model=st.sampled_from(["logistic", "mlp"]), n=st.integers(1, 12), d=st.integers(1, 5),
       c=st.integers(2, 5), h=st.integers(1, 6), scale=st.sampled_from([0.1, 3.0, 300.0]),
       seed=st.integers(0, 2**16))
def test_in_place_logits_are_bitwise_the_reference(model, n, d, c, h, scale, seed):
    rng = np.random.default_rng(seed)
    X = scale * rng.standard_normal((n, d))
    if model == "logistic":
        kernel, reference, shapes = kernels.logistic_logits, reference_logistic_logits, [(d, c),
                                                                                          (c,)]
    else:
        kernel, reference = kernels.mlp_logits, reference_mlp_logits
        shapes = [(d, h), (h,), (h, c), (c,)]
    inputs = [X, *(rng.standard_normal(s) for s in shapes)]
    before = [a.tobytes() for a in inputs]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = kernel(*inputs)
    want = reference(*inputs)
    assert [a.tobytes() for a in inputs] == before
    assert got.shape == want.shape and got.tobytes() == want.tobytes()

"""Kernel contracts: a saturated softmax gives an infinite loss, a finite
gradient and no numpy warning; a stacked call computes each slice exactly as
the 2-D call on it."""

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

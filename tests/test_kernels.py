"""Saturated softmax: an infinite loss, a finite gradient and no numpy warning."""

import warnings

import numpy as np
import pytest

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

"""Kernel contracts: a saturated softmax gives an infinite loss, a finite
gradient and no numpy warning; a stacked call computes each slice exactly as
the 2-D call on it, whatever the memory layout of ``X``; the in-place
kernels, value+grad and logits, are bitwise the class-major expression-form
reference kernels below and modify no input; and the row-major expression
kernels the class-major layout replaced agree with them to rounding."""

import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
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


def kernel_and_shapes(model, d, c, h):
    if model == "logistic":
        return kernels.logistic_value_grad, [(d, c), (c,)]
    return kernels.mlp_value_grad, [(d, h), (h,), (h, c), (c,)]


def laid_out(values, layout, rng):
    """``values`` (..., n, d) as a row-major array, or as a view of
    feature-major memory: a gather's (d, ..., n) block, or a slice of a wider
    (d, N) pool whose example axis is longer than the stack."""
    if layout == "row":
        return np.ascontiguousarray(values)
    fm = np.moveaxis(values, -1, 0).reshape(values.shape[-1], -1)  # (d, rows)
    if layout == "pool":
        pad = int(rng.integers(1, 9))
        pool = rng.standard_normal((fm.shape[0], fm.shape[1] + 2 * pad))
        pool[:, pad:pad + fm.shape[1]] = fm
        fm = pool[:, pad:pad + fm.shape[1]]
    else:
        fm = np.ascontiguousarray(fm)
    return np.moveaxis(fm.reshape((-1,) + values.shape[:-1]), 0, -1)


@settings(max_examples=120, deadline=None, derandomize=True)
@given(model=st.sampled_from(["logistic", "mlp"]), m=st.integers(1, 4), n=st.integers(1, 40),
       d=st.integers(1, 20), c=st.integers(2, 12), h=st.integers(1, 20),
       layout=st.sampled_from(["row", "take", "pool"]), seed=st.integers(0, 2**16))
# one example per entry (numpy sums a single column's classes pairwise), and
# an input width and a hidden width of 1 (products whose result is a vector)
@example(model="logistic", m=3, n=1, d=4, c=12, h=1, layout="take", seed=0)
@example(model="mlp", m=3, n=1, d=4, c=11, h=5, layout="pool", seed=0)
@example(model="mlp", m=2, n=7, d=1, c=9, h=1, layout="take", seed=3)
def test_stacked_call_is_bitwise_the_2d_call_per_slice(model, m, n, d, c, h, layout, seed):
    rng = np.random.default_rng(seed)
    X = laid_out(3.0 * rng.standard_normal((m, n, d)), layout, rng)
    labels = rng.integers(0, c, (m, n))
    kernel, shapes = kernel_and_shapes(model, d, c, h)
    params = [rng.standard_normal((m,) + s) for s in shapes]
    stacked = kernel(X, labels, *params)
    assert stacked[0].shape == (m,)
    for j in range(m):
        # the slice itself, and a client's own feature-major copy of it
        for Xj in (X[j], np.asfortranarray(X[j])):
            flat = kernel(Xj, labels[j], *(p[j] for p in params))
            assert type(flat[0]) is float
            for whole, part in zip(stacked, flat):
                assert whole[j].tobytes() == np.asarray(part).tobytes()


@settings(max_examples=80, deadline=None, derandomize=True)
@given(model=st.sampled_from(["logistic", "mlp"]), lead=st.sampled_from([(), (1,), (3,)]),
       n=st.integers(1, 40), d=st.integers(1, 20), c=st.integers(2, 12), h=st.integers(1, 20),
       layout=st.sampled_from(["take", "pool"]), seed=st.integers(0, 2**16))
def test_feature_major_view_gives_the_same_bits(model, lead, n, d, c, h, layout, seed):
    """A call on a row-major ``X`` and on a feature-major view of the same
    values agree bit for bit, so no caller's layout reaches BLAS's
    transpose flags."""
    rng = np.random.default_rng(seed)
    values = 3.0 * rng.standard_normal(lead + (n, d))
    labels = rng.integers(0, c, lead + (n,))
    kernel, shapes = kernel_and_shapes(model, d, c, h)
    params = [rng.standard_normal(lead + s) for s in shapes]
    row, view = laid_out(values, "row", rng), laid_out(values, layout, rng)
    assert view.tobytes() == row.tobytes() and (n == 1 or view.strides[-2] == view.itemsize)
    for a, b in zip(kernel(row, labels, *params), kernel(view, labels, *params)):
        assert np.asarray(a).tobytes() == np.asarray(b).tobytes()
    if not lead:
        logits = kernels.logistic_logits if model == "logistic" else kernels.mlp_logits
        assert logits(row, *params).tobytes() == logits(view, *params).tobytes()


# The kernels as class-major plain expressions, each step a fresh array: the
# reference the in-place kernels must match bit for bit. Stacks are merged to
# one axis and matmuls taken by the kernels' own stride-independent
# ``_matmul``, in the same orientation.
def reference_affine(W, b, A):
    """W^T @ A + b as a row-major (R, m, n) array, for W (m, k, R), b (m, R)
    and A (m, k, n)."""
    Z = np.ascontiguousarray(kernels._matmul(W.transpose(0, 2, 1), A).transpose(1, 0, 2))
    return Z + b.T[:, :, None]


def reference_softmax_residual(Z, y):
    """Loss and ``(softmax - onehot(y)) / n`` of class-major logits (C, m, n)."""
    n = Z.shape[2]
    flat = Z.reshape(Z.shape[0], -1)
    e = np.exp(flat - flat.max(axis=0))
    p = e / kernels._class_sum(e)
    cols = np.arange(p.shape[1])
    loss = -np.log(p[y.reshape(-1), cols]).reshape(y.shape).mean(axis=1)
    onehot = np.zeros(p.shape)
    onehot[y.reshape(-1), cols] = 1.0
    return loss, ((p - onehot) / n).reshape(Z.shape)


def reference_logistic_value_grad(X, y, W, b):
    XT, merged = kernels._examples_last(X), kernels._merged
    loss, r = reference_softmax_residual(reference_affine(merged(W, 2), merged(b, 1), XT),
                                         merged(y, 1))
    return kernels._unstack(X.shape[:-2], loss, kernels._matmul(XT, r.transpose(1, 2, 0)),
                            r.sum(axis=2).T)


def reference_mlp_value_grad(X, y, W1, b1, W2, b2):
    XT, merged = kernels._examples_last(X), kernels._merged
    W2 = merged(W2, 2)
    a = np.tanh(reference_affine(merged(W1, 2), merged(b1, 1), XT))
    a_t = a.transpose(1, 0, 2)
    loss, r = reference_softmax_residual(reference_affine(W2, merged(b2, 1), a_t), merged(y, 1))
    back = kernels._matmul(W2, r.transpose(1, 0, 2)).transpose(1, 0, 2)
    dh = np.ascontiguousarray(back) * (1.0 - a * a)
    return kernels._unstack(X.shape[:-2], loss, kernels._matmul(XT, dh.transpose(1, 2, 0)),
                            dh.sum(axis=2).T, kernels._matmul(a_t, r.transpose(1, 2, 0)),
                            r.sum(axis=2).T)


REFERENCES = {"logistic": reference_logistic_value_grad, "mlp": reference_mlp_value_grad}


@settings(max_examples=80, deadline=None, derandomize=True)
@given(model=st.sampled_from(["logistic", "mlp"]), lead=st.sampled_from([(), (1,), (3,)]),
       n=st.integers(1, 40), d=st.integers(1, 20), c=st.integers(2, 12), h=st.integers(1, 20),
       layout=st.sampled_from(["row", "take", "pool"]),
       scale=st.sampled_from([0.1, 3.0, 300.0]), seed=st.integers(0, 2**16))
def test_in_place_kernels_are_bitwise_the_reference(model, lead, n, d, c, h, layout, scale,
                                                    seed):
    rng = np.random.default_rng(seed)
    X = laid_out(scale * rng.standard_normal(lead + (n, d)), layout, rng)
    labels = rng.integers(0, c, lead + (n,))
    kernel, shapes = kernel_and_shapes(model, d, c, h)
    params = [rng.standard_normal(lead + s) for s in shapes]
    inputs = [X, labels, *params]
    before = [a.tobytes() for a in inputs]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = kernel(*inputs)
    with np.errstate(divide="ignore"):
        want = REFERENCES[model](*inputs)
    assert [a.tobytes() for a in inputs] == before
    assert type(got[0]) is type(want[0])
    for g, w in zip(got, want):
        assert np.shape(g) == np.shape(w)
        assert np.asarray(g).tobytes() == np.asarray(w).tobytes()


def reference_logistic_logits(X, W, b):
    return reference_affine(W[None], b[None], kernels._examples_last(X))[:, 0].T


def reference_mlp_logits(X, W1, b1, W2, b2):
    a = np.tanh(reference_affine(W1[None], b1[None], kernels._examples_last(X)))
    return reference_affine(W2[None], b2[None], a.transpose(1, 0, 2))[:, 0].T


@settings(max_examples=60, deadline=None, derandomize=True)
@given(model=st.sampled_from(["logistic", "mlp"]), n=st.integers(1, 40), d=st.integers(1, 20),
       c=st.integers(2, 12), h=st.integers(1, 20), layout=st.sampled_from(["row", "pool"]),
       scale=st.sampled_from([0.1, 3.0, 300.0]), seed=st.integers(0, 2**16))
def test_in_place_logits_are_bitwise_the_reference(model, n, d, c, h, layout, scale, seed):
    rng = np.random.default_rng(seed)
    X = laid_out(scale * rng.standard_normal((n, d)), layout, rng)
    if model == "logistic":
        kernel, reference = kernels.logistic_logits, reference_logistic_logits
    else:
        kernel, reference = kernels.mlp_logits, reference_mlp_logits
    inputs = [X, *(rng.standard_normal(s) for s in kernel_and_shapes(model, d, c, h)[1])]
    before = [a.tobytes() for a in inputs]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = kernel(*inputs)
    want = reference(*inputs)
    assert [a.tobytes() for a in inputs] == before
    assert got.shape == want.shape == (n, c) and got.tobytes() == want.tobytes()


# The row-major expression kernels that the class-major layout replaced: an
# oracle the kernels must agree with to rounding, not bit for bit.
def row_major_softmax(z):
    e = np.exp(z - z.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def row_major_residual(p, y):
    n = p.shape[-2]
    true = np.take_along_axis(p, y[..., None], axis=-1)[..., 0]
    loss = -np.log(true).mean(axis=-1)
    onehot = np.arange(p.shape[-1]) == y[..., None]
    return loss, (p - onehot) / n


def row_major_logistic_value_grad(X, y, W, b):
    loss, r = row_major_residual(row_major_softmax(X @ W + b[..., None, :]), y)
    return loss, X.swapaxes(-1, -2) @ r, r.sum(axis=-2)


def row_major_mlp_value_grad(X, y, W1, b1, W2, b2):
    a = np.tanh(X @ W1 + b1[..., None, :])
    loss, r = row_major_residual(row_major_softmax(a @ W2 + b2[..., None, :]), y)
    dh = (r @ W2.swapaxes(-1, -2)) * (1.0 - a * a)
    return loss, X.swapaxes(-1, -2) @ dh, dh.sum(axis=-2), a.swapaxes(-1, -2) @ r, r.sum(axis=-2)


def row_major_logits(model, X, *params):
    if model == "logistic":
        W, b = params
        return X @ W + b
    W1, b1, W2, b2 = params
    return np.tanh(X @ W1 + b1) @ W2 + b2


def assert_near(got, want, rel=1e-12):
    """Equal where ``want`` is not finite, elsewhere within ``rel`` of its
    largest finite entry."""
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    assert got.shape == want.shape
    finite = np.isfinite(want)
    assert np.array_equal(got[~finite], want[~finite], equal_nan=True)
    if finite.any():
        scale = np.abs(want[finite]).max()
        assert np.abs(got[finite] - want[finite]).max() <= rel * scale


@settings(max_examples=80, deadline=None, derandomize=True)
@given(model=st.sampled_from(["logistic", "mlp"]), lead=st.sampled_from([(), (3,)]),
       n=st.integers(1, 40), d=st.integers(1, 20), c=st.integers(2, 12), h=st.integers(1, 20),
       scale=st.sampled_from([0.1, 3.0, 300.0]), seed=st.integers(0, 2**16))
def test_kernels_agree_with_the_row_major_oracle(model, lead, n, d, c, h, scale, seed):
    rng = np.random.default_rng(seed)
    X = laid_out(scale * rng.standard_normal(lead + (n, d)), "take", rng)
    labels = rng.integers(0, c, lead + (n,))
    kernel, shapes = kernel_and_shapes(model, d, c, h)
    params = [rng.standard_normal(lead + s) for s in shapes]
    oracle = row_major_logistic_value_grad if model == "logistic" else row_major_mlp_value_grad
    with np.errstate(divide="ignore"):
        want = oracle(np.ascontiguousarray(X), labels, *params)
    for g, w in zip(kernel(X, labels, *params), want):
        assert_near(g, w)
    if not lead:
        logits = kernels.logistic_logits if model == "logistic" else kernels.mlp_logits
        assert_near(logits(X, *params), row_major_logits(model, X, *params))

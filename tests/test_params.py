import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gradalign.errors import DimensionError, NumericError, UsageError
from gradalign.params import SeededStream, as_params, axpy, derive_stream, mean_reduce


def test_axpy_zero_scale_identity():
    x = np.array([1.0, 2.0])
    y = np.array([3.0, 4.0])
    assert np.array_equal(axpy(0.0, x, y), [3.0, 4.0])


def test_axpy_unit_scale():
    assert np.array_equal(axpy(1.0, np.array([1.0, 2.0]), np.zeros(2)), [1.0, 2.0])


def test_axpy_forced_arithmetic():
    out = axpy(-0.5, np.array([2.0, 4.0]), np.array([1.0, 1.0]))
    assert np.array_equal(out, [0.0, -1.0])


def test_axpy_inputs_unmodified():
    x = np.array([1.0, 2.0])
    y = np.array([3.0, 4.0])
    axpy(2.0, x, y)
    assert np.array_equal(x, [1.0, 2.0]) and np.array_equal(y, [3.0, 4.0])


def test_axpy_length_mismatch():
    with pytest.raises(DimensionError):
        axpy(1.0, np.zeros(2), np.zeros(3))


def test_axpy_nonfinite_scale():
    with pytest.raises(NumericError):
        axpy(float("nan"), np.zeros(2), np.zeros(2))


def test_mean_reduce_singleton():
    v = np.array([1.0, 1.0])
    assert np.array_equal(mean_reduce([v]), v)


def test_mean_reduce_symmetry():
    out = mean_reduce([np.array([2.0, 0.0]), np.array([0.0, 2.0])])
    assert np.array_equal(out, [1.0, 1.0])


def test_mean_reduce_forced_arithmetic():
    vs = [np.array([1.0, 2.0]), np.array([3.0, 4.0]), np.array([5.0, 6.0])]
    assert np.array_equal(mean_reduce(vs), [3.0, 4.0])


def test_mean_reduce_empty():
    with pytest.raises(UsageError):
        mean_reduce([])


@pytest.mark.parametrize("n", [2, 3, 5, 7, 13])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_mean_reduce_identical_copies_bit_equal(n, seed):
    # the awkward-decimal case (0.1 repeated) is exactly what the shifted
    # form exists for
    rng = np.random.default_rng(seed)
    v = np.concatenate([rng.standard_normal(5), [0.1, 1e-300, 3.0]])
    out = mean_reduce([v] * n)
    assert np.array_equal(out, v)


def test_mean_reduce_order_is_fixed():
    rng = np.random.default_rng(3)
    vs = [rng.standard_normal(4) for _ in range(6)]
    a = mean_reduce(vs)
    b = mean_reduce(list(vs))  # same inputs, same bits
    assert a.tobytes() == b.tobytes()


def test_as_params_rejects_nan():
    with pytest.raises(NumericError):
        as_params([1.0, float("inf")])
    with pytest.raises(DimensionError):
        as_params([[1.0, 2.0]])


def test_derive_same_address_same_samples():
    s = SeededStream(42)
    a = derive_stream(s, "client", 3).generator().standard_normal(1000)
    b = derive_stream(s, "client", 3).generator().standard_normal(1000)
    assert np.array_equal(a, b)


def test_derive_siblings_differ():
    s = SeededStream(42)
    a = s.derive("client", 0).generator().standard_normal(1000)
    b = s.derive("client", 1).generator().standard_normal(1000)
    assert not np.array_equal(a, b)
    assert abs(np.corrcoef(a, b)[0, 1]) < 0.15


def test_derive_lineage_equals_rederivation():
    s = SeededStream(7)
    a = s.derive("round", 5).derive("client", 2)
    b = SeededStream(7).derive("round", 5).derive("client", 2)
    assert a == b
    assert np.array_equal(a.generator().random(100), b.generator().random(100))


def test_label_distinguishes_streams():
    s = SeededStream(7)
    a = s.derive("round", 1).generator().random(100)
    b = s.derive("client", 1).generator().random(100)
    assert not np.array_equal(a, b)


_LINEAGE = st.lists(st.tuples(st.sampled_from(["round", "client", "epoch", "repeat", "x\u00e9"]),
                              st.integers(-2**65, 2**65)), max_size=3).map(tuple)
_SEED = st.one_of(st.integers(-2**70, 2**70), st.integers(2**63, 2**64 + 5))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(seed=_SEED, lineage=_LINEAGE, n=st.integers(1, 5000),
       epochs=st.lists(st.integers(0, 2**64 + 3), min_size=1, max_size=3),
       other=st.tuples(_SEED, _LINEAGE))
def test_keyed_draw_is_the_fresh_generator_permutation(seed, lineage, n, epochs, other):
    stream = SeededStream(seed, lineage)
    draw = stream.child_draws("epoch")
    other_draw = SeededStream(*other).child_draws("order")
    for e in epochs:
        got = draw(e).permutation(n)
        assert np.array_equal(got, stream.derive("epoch", e).generator().permutation(n))
        # a draw of another family in between leaves nothing behind
        other_draw(e).permutation(7)
        assert np.array_equal(draw(e).permutation(n), got)


_WIDE = st.floats(allow_nan=False, allow_infinity=False, width=64).filter(
    lambda v: abs(v) < 1e300)
_VECTOR = st.lists(st.one_of(_WIDE, st.sampled_from([0.0, -0.0, 5e-324, -1e300])),
                   min_size=1, max_size=8)


@settings(max_examples=80, deadline=None, derandomize=True)
@given(values=_VECTOR, n=st.integers(1, 16))
def test_mean_reduce_of_copies_is_bitwise_the_vector(values, n):
    v = np.array(values)
    assert mean_reduce([v.copy() for _ in range(n)]).tobytes() == v.tobytes()


@settings(max_examples=80, deadline=None, derandomize=True)
@given(rows=st.integers(1, 16).flatmap(
    lambda n: st.lists(st.lists(_WIDE, min_size=3, max_size=3), min_size=n, max_size=n)))
def test_mean_reduce_bits_do_not_depend_on_the_container(rows):
    A = np.array(rows)
    ref = mean_reduce([row.copy() for row in A]).tobytes()
    assert mean_reduce(row for row in A).tobytes() == ref
    assert mean_reduce(A).tobytes() == ref


def test_mean_reduce_keeps_negative_zero():
    v = np.array([-0.0, 0.0, -2.5])
    assert mean_reduce([v, v.copy(), v.copy()]).tobytes() == v.tobytes()

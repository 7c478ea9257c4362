import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gradalign.datagen import (
    Dataset,
    MinibatchSchedule,
    gen_blobs,
    load_csv,
    partition,
    save_csv,
    train_test_split,
)
from gradalign.errors import ConfigError, DataFormatError, UsageError
from gradalign.params import SeededStream


def test_gen_blobs_counts(stream):
    ds = gen_blobs(2, 5, 3, 2.0, stream)
    assert ds.n == 10
    assert np.bincount(ds.labels).tolist() == [5, 5]


def test_gen_blobs_separation_lets_centroids_classify(stream):
    ds = gen_blobs(4, 50, 2, 10.0, stream)
    centroids = np.stack([ds.features[ds.labels == c].mean(axis=0) for c in range(4)])
    d2 = ((ds.features[:, None, :] - centroids[None]) ** 2).sum(axis=2)
    assert (np.argmin(d2, axis=1) == ds.labels).all()


def test_gen_blobs_deterministic(stream):
    a = gen_blobs(3, 4, 2, 3.0, stream)
    b = gen_blobs(3, 4, 2, 3.0, stream)
    assert a.features.tobytes() == b.features.tobytes()
    assert np.array_equal(a.labels, b.labels)


def test_gen_blobs_min_pairwise_distance(stream):
    # true means are pinned at pairwise distance >= sep; with many samples the
    # empirical means sit close to them
    ds = gen_blobs(5, 2000, 3, 4.0, stream)
    means = np.stack([ds.features[ds.labels == c].mean(axis=0) for c in range(5)])
    dists = np.linalg.norm(means[:, None] - means[None], axis=2)
    off_diag = dists[np.triu_indices(5, k=1)]
    assert off_diag.min() > 4.0 - 0.2


def test_dataset_invariants():
    with pytest.raises(UsageError):
        Dataset(np.zeros((3, 2)), np.array([0, 0, 0], dtype=np.int64), 2)


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
@pytest.mark.parametrize("mode,n_clients,cpc", [
    ("iid", 7, 1),
    ("iid", 10, 1),
    ("label_shard", 5, 1),
    ("label_shard", 4, 2),
    ("label_shard", 11, 3),
])
def test_partition_disjoint_cover(seed, mode, n_clients, cpc):
    stream = SeededStream(seed)
    ds = gen_blobs(5, 30, 2, 3.0, stream.derive("data", 0))
    part = partition(ds, n_clients, mode, stream.derive("part", 0), cpc)
    allidx = np.concatenate(part.assignment)
    assert len(allidx) == ds.n
    assert np.array_equal(np.sort(allidx), np.arange(ds.n))


@settings(max_examples=80, deadline=None, derandomize=True)
@given(mode=st.sampled_from(["iid", "label_shard"]), classes=st.integers(1, 5),
       per_class=st.integers(1, 12), n_clients=st.integers(1, 12), cpc=st.integers(1, 4),
       seed=st.integers(0, 2**16))
def test_partition_is_a_disjoint_cover_or_a_config_error(mode, classes, per_class, n_clients,
                                                         cpc, seed):
    stream = SeededStream(seed)
    ds = gen_blobs(classes, per_class, 2, 3.0, stream.derive("data", 0))
    try:
        part = partition(ds, n_clients, mode, stream.derive("part", 0), cpc)
    except ConfigError:
        return  # infeasible sizes are refused, never split into a wrong cover
    assert len(part.assignment) == n_clients
    assert all(a.shape[0] > 0 for a in part.assignment)
    allidx = np.concatenate(part.assignment)
    assert np.array_equal(np.sort(allidx), np.arange(ds.n))  # disjoint and covering


def test_partition_iid_sizes_differ_by_at_most_one(stream):
    ds = gen_blobs(2, 50, 2, 3.0, stream)
    part = partition(ds, 10, "iid", stream.derive("p", 0))
    sizes = [len(a) for a in part.assignment]
    assert all(s == 10 for s in sizes)
    part = partition(ds, 7, "iid", stream.derive("p", 1))
    sizes = [len(a) for a in part.assignment]
    assert max(sizes) - min(sizes) <= 1


def test_label_shard_one_class_per_client(stream):
    ds = gen_blobs(10, 20, 2, 3.0, stream)
    part = partition(ds, 10, "label_shard", stream.derive("p", 0), 1)
    for idx in part.assignment:
        assert len(np.unique(ds.labels[idx])) == 1
    held = sorted(int(ds.labels[idx[0]]) for idx in part.assignment)
    assert held == list(range(10))  # no class spans two clients


def test_label_shard_single_label_even_when_sharded(stream):
    ds = gen_blobs(3, 40, 2, 3.0, stream)
    part = partition(ds, 6, "label_shard", stream.derive("p", 0), 1)
    for idx in part.assignment:
        assert len(np.unique(ds.labels[idx])) == 1


def test_label_shard_infeasible_raises(stream):
    ds = gen_blobs(5, 10, 2, 3.0, stream)
    with pytest.raises(ConfigError, match="cover"):
        partition(ds, 2, "label_shard", stream.derive("p", 0), 1)
    with pytest.raises(ConfigError):
        partition(ds, 60, "label_shard", stream.derive("p", 1), 1)


def test_train_test_split_stratified(stream):
    ds = gen_blobs(4, 50, 2, 3.0, stream)
    train, test = train_test_split(ds, 0.2, stream.derive("s", 0))
    assert train.n == 160 and test.n == 40
    assert np.bincount(train.labels).tolist() == [40] * 4
    assert np.bincount(test.labels).tolist() == [10] * 4


# ---------------------------------------------------------------------------
# CSV
# ---------------------------------------------------------------------------


def test_load_csv_remaps_labels(tmp_path):
    p = tmp_path / "d.csv"
    p.write_text("5,1.0,2.0\n5,3.0,4.0\n9,5.0,6.0\n")
    ds = load_csv(p)
    assert ds.n_classes == 2
    assert ds.labels.tolist() == [0, 0, 1]


def test_load_csv_ragged_row_names_line(tmp_path):
    p = tmp_path / "d.csv"
    p.write_text("0,1.0,2.0\n1,3.0\n")
    with pytest.raises(DataFormatError, match="line 2"):
        load_csv(p)


def test_load_csv_non_numeric_names_line(tmp_path):
    p = tmp_path / "d.csv"
    for bad in ("1,x,2.0", "1,nan,1.0", "0,inf,3", "nan,1.0,2.0"):
        p.write_text(f"0,1.0,2.0\n{bad}\n")
        with pytest.raises(DataFormatError, match="line 2"):
            load_csv(p)


def test_load_csv_empty_file(tmp_path):
    p = tmp_path / "d.csv"
    p.write_text("")
    with pytest.raises(DataFormatError):
        load_csv(p)


def test_load_csv_header_autodetected(tmp_path):
    p = tmp_path / "d.csv"
    p.write_text("label,f0,f1\n0,1.0,2.0\n1,3.0,4.0\n")
    ds = load_csv(p)
    assert ds.n == 2


def test_csv_round_trip(tmp_path, stream):
    ds = gen_blobs(3, 10, 4, 3.0, stream)
    p = tmp_path / "rt.csv"
    save_csv(ds, p)
    back = load_csv(p)
    assert np.array_equal(back.labels, ds.labels)
    np.testing.assert_allclose(back.features, ds.features, rtol=0, atol=1e-9)


# ---------------------------------------------------------------------------
# minibatch schedules
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("n,b", [(12, 4), (10, 3), (7, 7), (5, 2)])
def test_schedule_epoch_is_permutation(n, b, stream):
    sched = MinibatchSchedule(n, b, stream)
    n_batches = -(-n // b)
    got = np.concatenate(sched.take(n_batches))
    assert np.array_equal(np.sort(got), np.arange(n))


@settings(max_examples=80, deadline=None, derandomize=True)
@given(n=st.integers(1, 40), b=st.integers(1, 45), epochs=st.integers(1, 3),
       seed=st.integers(0, 2**16))
def test_schedule_emits_each_index_once_per_epoch(n, b, epochs, seed):
    per_epoch = -(-n // b)
    batches = MinibatchSchedule(n, b, SeededStream(seed)).take(epochs * per_epoch)
    for e in range(epochs):
        epoch = batches[e * per_epoch:(e + 1) * per_epoch]
        # full batches, then one short tail batch when b does not divide n
        assert [len(x) for x in epoch] == [b] * (per_epoch - 1) + [n - b * (per_epoch - 1)]
        assert np.array_equal(np.sort(np.concatenate(epoch)), np.arange(n))


def test_schedule_reshuffles_across_epochs(stream):
    sched = MinibatchSchedule(50, 50, stream)
    e1 = sched.next_batch()
    e2 = sched.next_batch()
    assert not np.array_equal(e1, e2)
    assert np.array_equal(np.sort(e2), np.arange(50))


def test_schedule_full_batch_emits_none(stream):
    sched = MinibatchSchedule(10, None, stream)
    assert sched.take(3) == [None, None, None]


def test_schedule_deterministic(stream):
    a = np.concatenate(MinibatchSchedule(20, 6, stream).take(8))
    b = np.concatenate(MinibatchSchedule(20, 6, stream).take(8))
    assert np.array_equal(a, b)


def reference_batches(n, b, stream, count):
    """The first ``count`` batches of a schedule, one fresh generator per epoch."""
    batches = []
    epoch = 0
    while len(batches) < count:
        perm = stream.derive("epoch", epoch).generator().permutation(n)
        epoch += 1
        batches.extend(perm[lo:lo + b] for lo in range(0, n, b))
    return batches[:count]


@settings(max_examples=80, deadline=None, derandomize=True)
@given(n=st.integers(1, 40), b=st.one_of(st.none(), st.integers(1, 45)),
       ops=st.lists(st.integers(0, 9), min_size=1, max_size=8),
       seed=st.integers(-2**63, 2**64))
def test_take_is_next_batch_repeated(n, b, ops, seed):
    """take(k) gives the k batches that k next_batch calls on a twin give, with
    take and next_batch calls interleaved, across epoch ends and short tails;
    both follow the fresh-generator reference."""
    sched = MinibatchSchedule(n, b, SeededStream(seed))
    twin = MinibatchSchedule(n, b, SeededStream(seed))
    got, want = [], []
    for k in ops:
        chunk = sched.take(k) if k else [sched.next_batch()]
        assert len(chunk) == max(k, 1)
        got += chunk
        want += [twin.next_batch() for _ in range(max(k, 1))]
    if b is None:
        assert got == want == [None] * len(got)
        return
    ref = reference_batches(n, b, SeededStream(seed), len(got))
    for g, w, r in zip(got, want, ref):
        assert g.dtype == np.int64
        assert np.array_equal(g, w) and np.array_equal(g, r)

import math

import numpy as np
import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as st

from isfl import model
from isfl.data import (
    CapacityError,
    CategoryDistribution,
    ClientShard,
    Dataset,
    PartitionConfig,
    generate_synthetic,
    global_distribution,
    load_csv_dataset,
    load_dataset,
    select_probe_set,
    sort_and_partition,
    train_holdout_test_split,
)
from isfl.data import _even_allocation
import oracles
from oracles import even_allocation, save_dataset


def balanced_source(n_classes=5, per_class=400, dim=8, seed=3):
    return generate_synthetic(n_classes, per_class, dim, separation=2.0, seed=seed)


class TestGenerateSynthetic:
    def test_minimal_cardinality(self):
        ds = generate_synthetic(2, 1, 2, 1.0, seed=0)
        assert len(ds) == 2
        assert sorted(ds.labels.tolist()) == [0, 1]

    def test_deterministic(self):
        a = generate_synthetic(4, 50, 6, 2.0, seed=9)
        b = generate_synthetic(4, 50, 6, 2.0, seed=9)
        assert np.array_equal(a.features, b.features)
        assert np.array_equal(a.labels, b.labels)

    def test_invalid_dimensions(self):
        with pytest.raises(ValueError):
            generate_synthetic(1, 10, 4, 1.0)
        with pytest.raises(ValueError):
            generate_synthetic(3, 10, 1, 1.0)
        with pytest.raises(ValueError):
            generate_synthetic(3, 10, 4, 0.0)

    @pytest.mark.parametrize("separation", [math.nan, math.inf, -math.inf])
    def test_non_finite_separation_rejected(self, separation):
        with pytest.raises(ValueError, match="separation must be finite"):
            generate_synthetic(3, 10, 4, separation)

    def test_high_separation_is_linearly_learnable(self):
        # Oracle: plain full-batch gradient descent with the model module.
        ds = generate_synthetic(10, 100, 20, 4.0, seed=1)
        spec = model.ModelSpec(input_dim=20, hidden_dims=(), n_classes=10)
        params = np.zeros_like(model.init_params(spec))
        for _ in range(200):
            params = params - oracles.kernel_mean_grads(spec, params, ds.features, ds.labels)
        _, acc = model.evaluate(spec, params, ds)
        assert acc > 0.90


class TestSortAndPartition:
    def test_default_scale_client_sizes(self):
        ds = balanced_source(n_classes=10, per_class=2200, dim=4)
        cfg = PartitionConfig(n_clients=20, shard_size=500, shards_per_client=2, nr=0.95, seed=0)
        shards = sort_and_partition(ds, cfg)
        assert len(shards) == 20
        assert all(len(s) == 1000 for s in shards)

    def test_nr_zero_shards_uniform(self):
        ds = balanced_source(n_classes=5, per_class=500)
        cfg = PartitionConfig(n_clients=4, shard_size=100, shards_per_client=1, nr=0.0, seed=2)
        for shard in sort_and_partition(ds, cfg):
            hist = np.bincount(ds.labels[shard.indices], minlength=5)
            assert hist.max() - hist.min() <= 1

    def test_nr_one_single_label_per_shard(self):
        # Per-class counts align with the shard size, so each sorted block is pure.
        ds = balanced_source(n_classes=10, per_class=500, dim=4)
        cfg = PartitionConfig(n_clients=10, shard_size=500, shards_per_client=1, nr=1.0, seed=5)
        for shard in sort_and_partition(ds, cfg):
            assert np.unique(ds.labels[shard.indices]).size == 1

    def test_disjoint_and_consistent(self):
        ds = balanced_source()
        cfg = PartitionConfig(n_clients=5, shard_size=100, shards_per_client=2, nr=0.9, seed=7)
        shards = sort_and_partition(ds, cfg)
        pooled = np.concatenate([s.indices for s in shards])
        assert pooled.size == np.unique(pooled).size
        for shard in shards:
            recomputed = np.bincount(ds.labels[shard.indices], minlength=ds.n_classes)
            assert np.array_equal(recomputed / len(shard), shard.local_distribution.probs)

    def test_deterministic(self):
        ds = balanced_source()
        cfg = PartitionConfig(n_clients=5, shard_size=100, shards_per_client=2, nr=0.9, seed=7)
        a = sort_and_partition(ds, cfg)
        b = sort_and_partition(ds, cfg)
        for x, y in zip(a, b):
            assert np.array_equal(x.indices, y.indices)

    def test_skew_grows_with_nr(self):
        ds = balanced_source(n_classes=5, per_class=600)
        uniform = np.full(5, 0.2)
        means = []
        for nr in (0.0, 0.5, 0.95, 1.0):
            cfg = PartitionConfig(n_clients=5, shard_size=100, shards_per_client=2, nr=nr, seed=11)
            shards = sort_and_partition(ds, cfg)
            tv = [0.5 * np.abs(s.local_distribution.probs - uniform).sum() for s in shards]
            means.append(np.mean(tv))
        assert all(a <= b + 1e-12 for a, b in zip(means, means[1:]))

    def test_capacity_error(self):
        ds = balanced_source(n_classes=5, per_class=100)
        cfg = PartitionConfig(n_clients=10, shard_size=100, shards_per_client=1, nr=0.5)
        with pytest.raises(CapacityError):
            sort_and_partition(ds, cfg)

    def test_exhausted_category_named(self):
        # category 1 has 7 rows: shard 0 takes 5 of them, shard 1 needs 5 more
        labels = np.concatenate([np.zeros(100), np.ones(7)]).astype(int)
        ds = Dataset(np.zeros((107, 2)), labels, 2)
        cfg = PartitionConfig(n_clients=2, shard_size=10, shards_per_client=1, nr=0.0)
        with pytest.raises(CapacityError) as info:
            sort_and_partition(ds, cfg)
        assert str(info.value) == "category 1 exhausted while drawing uniform shard portions"

    def test_globally_absent_category_rejected(self):
        # class 2 has so few samples they all land in unused segment tails,
        # leaving it out of every client; the solver needs it present
        rng = np.random.default_rng(0)
        labels = np.concatenate([np.zeros(102), np.ones(102), np.full(4, 2)]).astype(int)
        ds = Dataset(rng.standard_normal((208, 3)), labels, 3)
        cfg = PartitionConfig(n_clients=2, shard_size=100, shards_per_client=1, nr=1.0, seed=1)
        with pytest.raises(ValueError, match="absent"):
            sort_and_partition(ds, cfg)


@st.composite
def partition_problems(draw):
    """A PartitionConfig and an unbalanced source with room for it."""
    cfg = PartitionConfig(
        n_clients=draw(st.integers(1, 6)),
        shard_size=draw(st.integers(1, 30)),
        shards_per_client=draw(st.integers(1, 3)),
        nr=draw(st.floats(0.0, 1.0)),
        seed=draw(st.integers(0, 2**32 - 1)),
    )
    n_classes = draw(st.integers(2, 6))
    floor = 2 * math.ceil(cfg.n_shards * cfg.shard_size / n_classes)
    counts = [floor + draw(st.integers(0, 10)) for _ in range(n_classes)]
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    labels = rng.permutation(np.repeat(np.arange(n_classes), counts))
    return cfg, Dataset(rng.standard_normal((labels.size, 2)), labels, n_classes)


class TestPartitionProperties:
    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(partition_problems())
    def test_shards_disjoint_with_their_label_mix(self, problem):
        cfg, ds = problem
        try:
            shards = sort_and_partition(ds, cfg)
        except ValueError as exc:  # CapacityError, or a category no client holds
            if not isinstance(exc, CapacityError) and "absent from every client" not in str(exc):
                raise
            reject()
        everything = np.concatenate([s.indices for s in shards])
        assert np.unique(everything).size == everything.size
        for shard in shards:
            assert len(shard) == cfg.shards_per_client * cfg.shard_size
            expected = np.bincount(ds.labels[shard.indices], minlength=ds.n_classes) / len(shard)
            assert np.array_equal(shard.local_distribution.probs, expected)


@st.composite
def skewed_partition_problems(draw):
    """A PartitionConfig and a source with room for it whose label counts
    may run from none to twice an even share, so that the split can run out
    of a category."""
    cfg = PartitionConfig(
        n_clients=draw(st.integers(1, 6)),
        shard_size=draw(st.integers(1, 30)),
        shards_per_client=draw(st.integers(1, 3)),
        nr=draw(st.sampled_from([0.0, 0.5, 0.9, 1.0]) | st.floats(0.0, 1.0)),
        seed=draw(st.integers(0, 2**32 - 1)),
    )
    n_classes = draw(st.integers(2, 6))
    share = math.ceil(cfg.n_shards * cfg.shard_size / n_classes)
    counts = [draw(st.integers(0, 2 * share + 2)) for _ in range(n_classes)]
    counts[draw(st.integers(0, n_classes - 1))] += max(0, share * n_classes - sum(counts))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    labels = rng.permutation(np.repeat(np.arange(n_classes), counts))
    return cfg, Dataset(rng.standard_normal((labels.size, 2)), labels, n_classes)


def _partition_or_error(partition, ds, cfg):
    try:
        return partition(ds, cfg)
    except ValueError as exc:  # CapacityError, or a category no client holds
        return type(exc), str(exc)


class TestPartitionMatchesLoopOracle:
    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(st.one_of(partition_problems(), skewed_partition_problems()))
    def test_same_shards_or_same_error(self, problem):
        cfg, ds = problem
        got = _partition_or_error(sort_and_partition, ds, cfg)
        want = _partition_or_error(oracles.sort_and_partition, ds, cfg)
        if isinstance(want, tuple):
            assert got == want
            return
        assert len(got) == len(want)
        for a, b in zip(got, want):
            assert a.client_id == b.client_id
            assert a.indices.dtype == b.indices.dtype
            assert np.array_equal(a.indices, b.indices)
            assert np.array_equal(a.counts, b.counts)


class TestGlobalDistribution:
    def test_symmetric_pooling(self):
        ds = Dataset(np.zeros((8, 2)), np.array([0, 0, 0, 1, 0, 1, 1, 1]), 2)
        a = ClientShard.build(0, np.arange(4), ds)
        b = ClientShard.build(1, np.arange(4, 8), ds)
        pooled = global_distribution([a, b])
        assert np.allclose(pooled.probs, [0.5, 0.5])

    def test_single_client_identity(self):
        ds = balanced_source()
        cfg = PartitionConfig(n_clients=1, shard_size=100, shards_per_client=2, nr=0.8, seed=1)
        shards = sort_and_partition(ds, cfg)
        pooled = global_distribution(shards)
        assert np.allclose(pooled.probs, shards[0].local_distribution.probs)

    def test_near_uniform_for_balanced_source(self):
        ds = balanced_source(n_classes=10, per_class=2200, dim=4)
        cfg = PartitionConfig(n_clients=20, shard_size=500, shards_per_client=2, nr=0.98, seed=0)
        pooled = global_distribution(sort_and_partition(ds, cfg))
        assert np.all(np.abs(pooled.probs - 0.1) <= 0.02)

    def test_shard_counts_match_labels(self):
        ds = balanced_source()
        cfg = PartitionConfig(n_clients=3, shard_size=50, shards_per_client=2, nr=0.5, seed=0)
        shards = sort_and_partition(ds, cfg)
        for shard in shards:
            labels = ds.labels[shard.indices]
            assert np.array_equal(shard.counts, np.bincount(labels, minlength=ds.n_classes))
            assert shard.counts.sum() == len(shard)
            # each category's pool, in the shard's order, end to end
            pools = np.split(shard.category_rows, np.cumsum(shard.counts)[:-1])
            assert [pool.tolist() for pool in pools] == [
                shard.indices[labels == c].tolist() for c in range(ds.n_classes)
            ]
        pooled = np.bincount(
            ds.labels[np.concatenate([s.indices for s in shards])], minlength=ds.n_classes
        )
        assert np.array_equal(global_distribution(shards).probs, pooled / pooled.sum())


class TestSelectProbeSet:
    def test_requested_size(self):
        holdout = balanced_source(n_classes=5, per_class=200)
        probe = select_probe_set(holdout, 500, seed=0)
        assert len(probe) == 500

    def test_whole_holdout_boundary(self):
        holdout = balanced_source(n_classes=3, per_class=10)
        probe = select_probe_set(holdout, 30, seed=0)
        assert len(probe) == 30

    def test_stratified_for_balanced_holdout(self):
        holdout = balanced_source(n_classes=5, per_class=50)
        probe = select_probe_set(holdout, 123, seed=4)
        hist = np.bincount(probe.labels, minlength=probe.n_classes)
        assert hist.max() - hist.min() <= 1

    def test_capacity_error(self):
        holdout = balanced_source(n_classes=3, per_class=10)
        with pytest.raises(CapacityError):
            select_probe_set(holdout, 31)


class TestEvenAllocation:
    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(st.lists(st.integers(0, 40), min_size=1, max_size=12), st.data())
    def test_matches_the_sweep_oracle(self, capacities, data):
        """Random capacities, zeros included, and every total from 0 to two
        past their sum: the same counts, or CapacityError from both."""
        capacity = np.array(capacities, dtype=np.int64)
        total = data.draw(st.integers(0, int(capacity.sum()) + 2))
        if total > capacity.sum():
            with pytest.raises(CapacityError):
                _even_allocation(capacity, total)
            with pytest.raises(CapacityError):
                even_allocation(capacity, total)
            return
        counts = _even_allocation(capacity, total)
        assert counts.dtype == np.int64
        assert np.array_equal(counts, even_allocation(capacity, total))


class TestSplit:
    def test_sizes_and_disjoint_labels(self):
        ds = balanced_source(n_classes=4, per_class=100)
        train, holdout, test = train_holdout_test_split(ds, 60, 40, seed=2)
        assert len(holdout) == 60 and len(test) == 40
        assert len(train) == len(ds) - 100
        hist = np.bincount(holdout.labels, minlength=holdout.n_classes)
        assert hist.max() - hist.min() <= 1


class TestFileFormats:
    def test_dataset_round_trip(self, tmp_path):
        ds = balanced_source(n_classes=3, per_class=20, dim=5)
        path = tmp_path / "ds.bin"
        save_dataset(ds, path)
        back = load_dataset(path)
        assert back.n_classes == 3 and back.dim == 5 and len(back) == 60
        assert np.array_equal(back.labels, ds.labels)
        # features round through f32
        assert np.allclose(back.features, ds.features, atol=1e-6)
        assert path.read_bytes()[:7] == b"ISFLDS1"

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "junk.bin"
        path.write_bytes(b"NOTHING here")
        with pytest.raises(ValueError):
            load_dataset(path)

    def test_csv_import(self, tmp_path):
        path = tmp_path / "ds.csv"
        path.write_text("0,1.5,2.5\n1,-1.0,0.25\n1,0.0,3.0\n")
        ds = load_csv_dataset(path, 2)
        assert ds.n_classes == 2 and ds.dim == 2 and len(ds) == 3
        assert ds.labels.tolist() == [0, 1, 1]
        assert ds.features[0, 1] == 2.5

    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf"])
    def test_csv_non_finite_feature_rejected(self, tmp_path, cell):
        path = tmp_path / "ds.csv"
        path.write_text(f"0,1.5,2.5\n1,-1.0,{cell}\n1,0.0,3.0\n")
        with pytest.raises(ValueError, match="row 1 has a non-finite feature"):
            load_csv_dataset(path, 2)

    @pytest.mark.parametrize("label", ["1.7", "0.5", "nan", "inf"])
    def test_csv_non_integer_label_rejected(self, tmp_path, label):
        path = tmp_path / "ds.csv"
        path.write_text(f"0,1.5,2.5\n1,-1.0,0.25\n{label},0.0,3.0\n")
        with pytest.raises(ValueError) as info:
            load_csv_dataset(path, 2)
        assert str(info.value) == f"{path}: row 2 has a non-integer label {label}"

    def test_container_non_finite_feature_rejected(self, tmp_path):
        ds = balanced_source(n_classes=3, per_class=4, dim=2)
        features = ds.features.copy()
        features[7, 1] = np.nan
        path = tmp_path / "ds.bin"
        save_dataset(Dataset(features, ds.labels, ds.n_classes), path)
        with pytest.raises(ValueError, match="row 7 has a non-finite feature"):
            load_dataset(path)


class TestValidation:
    def test_dataset_invariants(self):
        with pytest.raises(ValueError):
            Dataset(np.zeros((2, 2)), np.array([0, 3]), 2)
        with pytest.raises(ValueError):
            Dataset(np.zeros((2, 2)), np.array([0]), 2)

    def test_distribution_invariants(self):
        with pytest.raises(ValueError):
            CategoryDistribution(np.array([0.5, 0.6]))
        with pytest.raises(ValueError):
            CategoryDistribution(np.array([1.2, -0.2]))

    @pytest.mark.parametrize("probs", [[np.nan, np.nan], [np.nan, 1.0], [np.inf, -np.inf]])
    def test_distribution_rejects_non_finite(self, probs):
        # NaN fails both "< 0" and "|sum - 1| > tol", so it needs its own check
        with pytest.raises(ValueError, match="finite"):
            CategoryDistribution(np.array(probs))

    def test_partition_config(self):
        with pytest.raises(ValueError):
            PartitionConfig(n_clients=2, shard_size=10, nr=1.5)

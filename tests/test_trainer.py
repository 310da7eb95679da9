import functools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import isfl.trainer as trainer_mod
import oracles
from isfl.data import CategoryDistribution, ClientShard, Dataset
from isfl.isweights import solve_is_weights
from isfl.model import ModelSpec, init_params
from isfl.trainer import (
    TrainerConfig,
    batch_sizes,
    check_plan,
    draw_batches,
    epoch_batches,
    gradnorm_plan,
    local_train,
    rw_plan,
)

# chi-squared 1% critical values by degrees of freedom
CHI2_99 = {1: 6.635, 2: 9.210, 3: 11.345, 4: 13.277}


def make_shard(labels, dim=3, seed=0):
    labels = np.asarray(labels)
    rng = np.random.default_rng(seed)
    ds = Dataset(rng.standard_normal((labels.size, dim)), labels, int(labels.max()) + 1)
    return ClientShard.build(0, np.arange(labels.size), ds)


def weighted_sample_batch(shard, plan, batch_size, seed):
    """One batch drawn by the run-long sampler."""
    return shard.dataset.subset(draw_batches(shard, plan, (batch_size,), seed))


def train_alone(spec, params, shard, plan, cfg, seed=0):
    """local_train for one client: a stack of one."""
    return local_train(spec, params, [shard], [plan], cfg, [seed])[0]


def mean_grad(spec, params, ds):
    return oracles.kernel_mean_grads(spec, params, ds.features, ds.labels)


def plan_from_q(q):
    return CategoryDistribution(np.asarray(q, dtype=np.float64))


class TestWeightedSampleBatch:
    def test_unit_weights_recover_local_distribution(self):
        labels = np.concatenate([np.zeros(40), np.ones(30), np.full(20, 2), np.full(10, 3)])
        shard = make_shard(labels.astype(int))
        plan = shard.local_distribution
        batch = weighted_sample_batch(shard, plan, 10_000, 0)
        observed = np.bincount(batch.labels, minlength=4)
        expected = 10_000 * shard.local_distribution.probs
        chi2 = ((observed - expected) ** 2 / expected).sum()
        assert chi2 < CHI2_99[3]

    def test_one_hot_plan(self):
        shard = make_shard([0, 0, 1, 1, 2, 2])
        plan = plan_from_q([0.0, 1.0, 0.0])
        batch = weighted_sample_batch(shard, plan, 64, 1)
        assert np.all(batch.labels == 1)

    def test_solved_plan_frequencies(self):
        labels = np.concatenate([np.zeros(80), np.ones(10), np.full(10, 2)]).astype(int)
        shard = make_shard(labels)
        plan = plan_from_q([0.665, 0.330, 0.005])
        batch = weighted_sample_batch(shard, plan, 100_000, 2)
        freq = np.bincount(batch.labels, minlength=3) / 100_000
        assert np.abs(freq - plan.probs).max() <= 0.02

    def test_support_missing_from_shard_rejected(self):
        rng = np.random.default_rng(0)
        ds = Dataset(rng.standard_normal((3, 3)), np.array([0, 0, 1]), 3)
        shard = ClientShard.build(0, np.arange(3), ds)  # no category-2 samples
        plan = plan_from_q([0.0, 0.0, 1.0])
        with pytest.raises(ValueError):
            weighted_sample_batch(shard, plan, 8, 0)

    def test_a_plan_off_the_shard_names_its_client(self):
        rng = np.random.default_rng(0)
        ds = Dataset(rng.standard_normal((3, 3)), np.array([0, 0, 1]), 3)
        shard = ClientShard.build(7, np.arange(3), ds)  # no category-2 samples
        message = "^client 7: plan assigns mass to category 2 the shard lacks$"
        with pytest.raises(ValueError, match=message):
            check_plan(shard, plan_from_q([0.5, 0.0, 0.5]))
        with pytest.raises(ValueError, match=message):
            draw_batches(shard, plan_from_q([0.5, 0.0, 0.5]), (8,), 0)

    def test_plan_outside_shard_categories_rejected(self):
        shard = make_shard([0, 0, 1, 1, 2])  # categories 0..2 present
        ds = Dataset(shard.dataset.features, shard.dataset.labels, 4)
        shard4 = ClientShard.build(0, np.arange(5), ds)
        plan = plan_from_q([0.25, 0.25, 0.25, 0.25])
        with pytest.raises(ValueError):
            weighted_sample_batch(shard4, plan, 8, 0)


class TestLocalTrain:
    def test_zero_eta_leaves_params(self):
        shard = make_shard(np.tile([0, 1, 2], 10))
        spec = ModelSpec(3, (), 3)
        params = init_params(spec, seed=1)
        cfg = TrainerConfig(batch_size=8, local_epochs=2, eta=0.0)
        out = train_alone(spec, params, shard, shard.local_distribution, cfg)
        assert np.array_equal(out, params)

    def test_reduces_to_full_batch_step(self, monkeypatch):
        shard = make_shard(np.tile([0, 1, 2], 8))
        spec = ModelSpec(3, (), 3)
        params = init_params(spec, seed=2)
        monkeypatch.setattr(
            trainer_mod,
            "draw_batches",
            lambda shard_, plan_, sizes_, seed_: np.tile(shard_.indices, len(sizes_)),
        )
        cfg = TrainerConfig(batch_size=len(shard), local_epochs=1, eta=0.01)
        out = train_alone(spec, params, shard, shard.local_distribution, cfg)
        grad = mean_grad(spec, params, shard.dataset.subset(shard.indices))
        assert np.array_equal(out, params - 0.01 * grad)

    def test_deterministic(self):
        shard = make_shard(np.tile([0, 0, 1, 2], 12), seed=5)
        spec = ModelSpec(3, (4,), 3)
        params = init_params(spec, seed=3)
        plan = solve_is_weights(
            CategoryDistribution(np.array([0.4, 0.3, 0.3])),
            shard.local_distribution,
            np.array([1.0, 1.3, 0.8]),
            0.05,
        ).q
        cfg = TrainerConfig(batch_size=16, local_epochs=3, eta=0.05)
        a = train_alone(spec, params, shard, plan, cfg, seed=11)
        b = train_alone(spec, params, shard, plan, cfg, seed=11)
        assert np.array_equal(a, b)

    def test_epoch_touches_exactly_the_sampling_budget(self, monkeypatch):
        shard = make_shard(np.tile([0, 1, 2], 11))  # 33 samples
        spec = ModelSpec(3, (), 3)
        params = init_params(spec, seed=0)
        sizes = []
        real = trainer_mod.sgd_stepper

        def recording(spec_, stack_):
            step = real(spec_, stack_)

            def recorded(x_, labels_, eta_):
                sizes.append(x_.shape[1])
                return step(x_, labels_, eta_)

            return recorded

        monkeypatch.setattr(trainer_mod, "sgd_stepper", recording)
        cfg = TrainerConfig(batch_size=8, local_epochs=2, eta=0.01, sampling_ratio=0.5)
        train_alone(spec, params, shard, shard.local_distribution, cfg)
        budget = int(0.5 * 33)
        assert sum(sizes) == 2 * budget
        assert sizes == [8, 8] * 2  # 16 = floor(0.5 * 33)
        assert batch_sizes(33, cfg) == (8, 8) * 2
        assert batch_sizes(35, cfg) == (8, 8, 1) * 2

    @given(n_samples=st.integers(0, 300), batch_size=st.integers(1, 40),
           epochs=st.integers(1, 3), ratio=st.floats(0.01, 1.0))
    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    def test_epoch_batches_counts_the_schedule(self, n_samples, batch_size, epochs, ratio):
        cfg = TrainerConfig(batch_size=batch_size, local_epochs=epochs, sampling_ratio=ratio)
        assert epoch_batches(n_samples, cfg) * epochs == len(batch_sizes(n_samples, cfg))

    def test_per_sample_plan_path(self):
        shard = make_shard(np.tile([0, 1], 10))
        spec = ModelSpec(3, (), 2)
        params = init_params(spec, seed=4)
        probs = np.full(len(shard), 1.0 / len(shard))
        cfg = TrainerConfig(batch_size=8, local_epochs=1, eta=0.01)
        out = train_alone(spec, params, shard, probs, cfg, seed=2)
        assert not np.array_equal(out, params)
        with pytest.raises(ValueError):
            train_alone(spec, params, shard, probs[:-1], cfg, seed=2)
        with pytest.raises(ValueError):
            train_alone(spec, params, shard, np.full(len(shard), np.nan), cfg, seed=2)

    @pytest.mark.parametrize("edit, message", [
        (lambda p: p * np.nan, "probs must be finite"),
        (lambda p: p - np.eye(p.size)[0] / 2 + np.eye(p.size)[1] / 2, "probs must be non-negative"),
        (lambda p: p * (1.0 + 1e-8), "probs must sum to 1"),
    ], ids=["nan", "negative", "sum-off-by-1e-8"])
    def test_per_sample_plan_meets_the_distribution_rule(self, edit, message):
        """A per-sample vector passes CategoryDistribution, whose sum bound
        (1e-9) is tighter than Generator.choice's (about 1.5e-8)."""
        shard = make_shard(np.tile([0, 1], 10))
        probs = np.full(len(shard), 1.0 / len(shard))
        check_plan(shard, probs)
        with pytest.raises(ValueError, match=message):
            check_plan(shard, edit(probs))

    def test_one_seed_per_client_required(self):
        shard = make_shard(np.tile([0, 1], 4))
        spec = ModelSpec(3, (), 2)
        plan = shard.local_distribution
        with pytest.raises(ValueError):
            local_train(spec, init_params(spec, 0), [shard, shard], [plan, plan], TrainerConfig(), [0])

    @pytest.mark.parametrize("layout", ["unequal-shards", "two-datasets"])
    def test_clients_must_hold_equal_shards_of_one_dataset(self, layout):
        shard = make_shard(np.tile([0, 1], 4))
        other = {
            "unequal-shards": ClientShard.build(1, np.arange(6), shard.dataset),
            "two-datasets": make_shard(np.tile([0, 1], 4), seed=1),
        }[layout]
        spec = ModelSpec(3, (), 2)
        plans = [s.local_distribution for s in (shard, other)]
        with pytest.raises(ValueError, match="equal shard of one dataset"):
            local_train(spec, init_params(spec, 0), [shard, other], plans, TrainerConfig(), [0, 1])

    def test_minibatch_gradient_unbiased(self):
        # Expected minibatch gradient should equal the q-weighted mixture of
        # per-category mean gradients.
        labels = np.concatenate([np.zeros(12), np.ones(9), np.full(6, 2)]).astype(int)
        shard = make_shard(labels, dim=2, seed=7)
        spec = ModelSpec(2, (), 3)
        params = init_params(spec, seed=8)
        plan = plan_from_q([0.5, 0.2, 0.3])

        target = np.zeros(params.size)
        for c, qc in enumerate(plan.probs):
            pool = shard.dataset.subset(np.flatnonzero(shard.dataset.labels == c))
            target += qc * mean_grad(spec, params, pool)

        total = np.zeros_like(target)
        n_batches = 10_000
        rows = draw_batches(shard, plan, (8,) * n_batches, 9).reshape(n_batches, 8)
        for batch in rows:
            total += mean_grad(spec, params, shard.dataset.subset(batch))
        mc = total / n_batches
        rel = np.linalg.norm(mc - target) / np.linalg.norm(target)
        assert rel <= 0.02


class TestGradnormPlan:
    def test_probs_proportional_to_norms(self, monkeypatch):
        shard = make_shard([0, 1, 2])
        spec = ModelSpec(3, (), 3)
        monkeypatch.setattr(
            trainer_mod,
            "per_sample_grad_norms",
            lambda spec_, params_, ds_: np.array([0.0, 1.0, 3.0]),
        )
        probs = gradnorm_plan(spec, init_params(spec, 0), shard.dataset.subset(shard.indices))
        assert np.allclose(probs, [0.0, 0.25, 0.75])

    def test_identical_samples_uniform(self):
        row = np.array([0.3, -1.2, 0.8])
        ds = Dataset(np.tile(row, (4, 1)), np.full(4, 1), 3)
        shard = ClientShard.build(0, np.arange(4), ds)
        spec = ModelSpec(3, (), 3)
        probs = gradnorm_plan(spec, init_params(spec, 1), shard.dataset.subset(shard.indices))
        assert np.allclose(probs, 0.25)

    def test_zero_norms_fall_back_to_uniform(self, monkeypatch):
        shard = make_shard([0, 1, 2, 0])
        spec = ModelSpec(3, (), 3)
        monkeypatch.setattr(
            trainer_mod, "per_sample_grad_norms", lambda *a: np.zeros(4)
        )
        assert np.allclose(gradnorm_plan(spec, init_params(spec, 0), shard.dataset.subset(shard.indices)), 0.25)

    def test_normalization_over_seeded_instances(self):
        spec = ModelSpec(3, (4,), 3)
        for seed in range(100):
            shard = make_shard(np.random.default_rng(seed).integers(0, 3, 12), seed=seed)
            probs = gradnorm_plan(spec, init_params(spec, seed), shard.dataset.subset(shard.indices))
            assert abs(probs.sum() - 1.0) <= 1e-12


class TestRwPlan:
    def test_two_category_shard(self):
        labels = np.concatenate([np.zeros(9), np.ones(1)]).astype(int)
        plan = rw_plan(make_shard(labels))
        assert np.allclose(plan.probs, [0.5, 0.5])

    def test_single_category_shard(self):
        plan = rw_plan(make_shard([0, 0, 0]))
        assert np.allclose(plan.probs, [1.0])

    def test_weights_average_to_one(self):
        for seed in range(100):
            rng = np.random.default_rng(seed)
            labels = rng.integers(0, 4, size=30)
            shard = make_shard(labels, seed=seed)
            # the weights q / p_local average to one under p_local exactly
            # when q puts no mass where the client holds no sample
            plan = rw_plan(shard)
            assert not plan.probs[shard.local_distribution.probs == 0.0].any()


ORACLE_SETTINGS = settings(max_examples=80, deadline=None, derandomize=True, database=None)


def random_plan(shard, per_sample, rng):
    """A per-sample vector or a category plan, with some zero entries."""
    if per_sample:
        weights = rng.random(len(shard)) * (rng.random(len(shard)) < 0.8)
        weights[rng.integers(len(shard))] += 0.5
        return weights / weights.sum()
    present = shard.counts > 0
    weights = rng.random(present.size) * present * (rng.random(present.size) < 0.8)
    weights[rng.choice(np.flatnonzero(present))] += 0.5
    return plan_from_q(weights / weights.sum())


@st.composite
def lockstep_problems(draw, equal=False):
    """Clients with category or per-sample plans, one shared trainer config
    and a seed each: of unequal size, on one shared dataset or on their own
    ones, which gives them different batch schedules; or with ``equal``,
    equal shards of one dataset, the layout ``local_train`` takes."""
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    n_classes = draw(st.integers(2, 4))
    dim = draw(st.integers(1, 4))
    if equal:
        sizes = [draw(st.integers(1, 24))] * draw(st.integers(1, 4))
    else:
        sizes = draw(st.lists(st.integers(1, 24), min_size=1, max_size=4))
    shared = equal or draw(st.booleans())

    def dataset(n):
        return Dataset(rng.standard_normal((n, dim)), rng.integers(0, n_classes, n), n_classes)

    shards = []
    if shared:
        source = dataset(sum(sizes))
        bounds = np.cumsum([0, *sizes])
        order = rng.permutation(len(source))
        for k, (a, b) in enumerate(zip(bounds[:-1], bounds[1:])):
            shards.append(ClientShard.build(k, order[a:b], source))
    else:
        for k, n in enumerate(sizes):
            shards.append(ClientShard.build(k, np.arange(n), dataset(n)))
    per_sample = draw(st.lists(st.booleans(), min_size=len(sizes), max_size=len(sizes)))
    plans = [random_plan(s, ps, rng) for s, ps in zip(shards, per_sample)]
    cfg = TrainerConfig(
        batch_size=draw(st.integers(1, 9)),
        local_epochs=draw(st.integers(1, 3)),
        eta=draw(st.sampled_from([0.0, 0.05, 0.4])),
        sampling_ratio=draw(st.sampled_from([1.0, 0.7, 0.35])),
    )
    seeds = [int(seed) for seed in rng.integers(2**32, size=len(sizes))]
    spec = ModelSpec(
        dim,
        draw(st.sampled_from([(), (3,), (4, 2)])),
        n_classes,
        activation=draw(st.sampled_from(["relu", "tanh"])),
    )
    return spec, init_params(spec, seed=seed % 1000), shards, plans, cfg, seeds


class TestLockstepMatchesOracle:
    """The run-long sampler and the stacked trainer against the per-batch,
    per-client implementations they replaced (``tests/oracles.py``)."""

    @ORACLE_SETTINGS
    @given(lockstep_problems())
    def test_sampler_draws_what_the_per_batch_sampler_draws(self, problem):
        _, _, shards, plans, cfg, seeds = problem
        for shard, plan, seed in zip(shards, plans, seeds):
            sizes = batch_sizes(len(shard), cfg)
            picks = draw_batches(shard, plan, sizes, seed)
            assert np.array_equal(picks, draw_batches(shard, plan, sizes, seed))

            ref_rng = np.random.default_rng(seed)
            per_batch = oracles._sample_by_weight if isinstance(plan, np.ndarray) else (
                oracles.weighted_sample_batch
            )
            batches = [per_batch(shard, plan, take, ref_rng) for take in sizes]
            assert picks.size == sum(sizes)
            if batches:
                drawn = shard.dataset.subset(picks)
                assert np.array_equal(drawn.features, np.vstack([b.features for b in batches]))
                assert np.array_equal(drawn.labels, np.concatenate([b.labels for b in batches]))

    @ORACLE_SETTINGS
    @given(lockstep_problems(equal=True))
    def test_local_train_matches_training_alone_bitwise(self, problem):
        spec, params, shards, plans, cfg, seeds = problem
        start = params.copy()
        together = local_train(spec, params, shards, plans, cfg, seeds)
        assert np.array_equal(params, start)  # the input is not trained in place
        assert together.shape == (len(shards), params.size)
        for out, shard, plan, seed in zip(together, shards, plans, seeds):
            alone = oracles.local_train(spec, params, shard, plan, cfg, seed)
            assert out.shape == alone.shape
            assert out.tobytes() == alone.tobytes()


def assert_matches_oracle(shard, plan, sizes, seed):
    """draw_batches against the oracle's per-batch sampler on
    ``default_rng(seed)``: the same rows."""
    ref = np.random.default_rng(seed)
    picks = draw_batches(shard, plan, sizes, seed)
    batches = [oracles.weighted_sample_batch(shard, plan, size, ref) for size in sizes]
    assert picks.size == sum(sizes)
    if batches:
        drawn = shard.dataset.subset(picks)
        assert np.array_equal(drawn.features, np.vstack([b.features for b in batches]))
        assert np.array_equal(drawn.labels, np.concatenate([b.labels for b in batches]))


def numpy_per_batch(shard, plan, sizes, seed):
    """The rows of numpy's own per-batch calls on ``default_rng(seed)``: one
    ``rng.choice`` of each batch's categories, then one array-bound
    ``rng.integers`` of their positions, grouped by ascending category."""
    rng = np.random.default_rng(seed)
    q, counts = plan.probs, shard.counts
    labels = shard.dataset.labels[shard.indices]
    pooled = np.concatenate([shard.indices[labels == c] for c in range(q.size)])
    first = np.cumsum(counts) - counts
    rows = []
    for size in sizes:
        cats = rng.choice(q.size, size=size, p=q)
        by_cat = np.argsort(cats, kind="stable")
        positions = np.empty(size, dtype=np.int64)
        positions[by_cat] = rng.integers(0, counts[cats[by_cat]])
        rows.append(pooled[first[cats] + positions])
    return np.concatenate(rows)


class TestRawStreamSampler:
    """The edges of the one-block PCG64 stream: an empty schedule, a half
    that numpy's bounded draw would reject, a one-sample pool, and the numpy
    behaviour the oracle's positions rest on."""

    SHARD_LABELS = np.repeat([0, 1, 2], [7, 2, 12])

    def plan(self, shard):
        return plan_from_q([0.5, 0.2, 0.3])

    @pytest.mark.parametrize("seed", [4], ids=["fresh"])
    def test_empty_schedule_draws_nothing(self, seed):
        shard = make_shard(self.SHARD_LABELS)
        for plan in (self.plan(shard), np.full(len(shard), 1.0 / len(shard))):
            assert draw_batches(shard, plan, (), seed).shape == (0,)

    def test_numpy_hands_out_each_words_low_half_then_its_high_half(self):
        """``integers(0, 2**32, dtype=np.uint64)`` on PCG64 reads one 32-bit
        half per value, the low half of a fresh word first, and the buffered
        high half survives a ``random`` call between the draws."""
        for seed in range(20):
            words = np.random.PCG64(seed).random_raw(4)
            low, high = words & 0xFFFFFFFF, words >> 32
            rng = np.random.default_rng(seed)
            first = rng.integers(0, 2**32, size=3, dtype=np.uint64)
            double = rng.random()
            rest = rng.integers(0, 2**32, size=3, dtype=np.uint64)
            assert np.array_equal(first, [low[0], high[0], low[1]])
            assert double == (words[2] >> 11) * 2.0**-53
            assert np.array_equal(rest, [high[1], low[3], high[3]])

    def test_a_half_numpy_would_reject_is_kept(self):
        """A pool of 199,831 samples: numpy rejects about 1 half in 21,500
        (2**32 % 199831 of 2**32), and with seed 46 one of the first 512
        positions in it is rejected. The sampler keeps that half, as the
        oracle does, where numpy's own calls read the next one."""
        labels = np.repeat([0, 1], [199_831, 2])
        ds = Dataset(np.arange(labels.size, dtype=np.float64)[:, None], labels, 2)
        shard = ClientShard.build(0, np.arange(labels.size), ds)
        plan = plan_from_q([0.5, 0.5])
        sizes = (128,) * 8
        assert_matches_oracle(shard, plan, sizes, 46)
        assert not np.array_equal(
            draw_batches(shard, plan, sizes, 46), numpy_per_batch(shard, plan, sizes, 46)
        )

    def test_one_sample_pool_reads_a_half(self):
        shard = make_shard(np.repeat([0, 1, 2], [9, 1, 6]))
        plan = plan_from_q([0.4, 0.3, 0.3])
        for seed in range(5):
            assert_matches_oracle(shard, plan, (8, 8, 3), seed)
        # a one-sample pool outside the support
        plan = plan_from_q([0.5, 0.0, 0.5])
        assert_matches_oracle(shard, plan, (8, 8, 3), 0)
        # one in the support that the run never draws, as with seeds 8 and 9 here
        plan = plan_from_q([0.45, 0.1, 0.45])
        for seed in (8, 9):
            assert_matches_oracle(shard, plan, (8, 8, 3), seed)


# The client shards of the three benchmark workloads (bench/harness.py):
# pools of hundreds of samples, schedules of up to 715 batches
BENCH_SHAPES = {
    "trend-desk": dict(
        classes=5, per_class=800, dim=20, separation=1.2, clients=10, shard_size=100,
        nr=0.9, probe_size=500, holdout_size=500, test_size=1000,
    ),
    "paper-scale": dict(per_class=2200),
    "wide-probe": dict(
        classes=5, per_class=1600, dim=64, clients=10, shard_size=250, probe_size=1000,
        holdout_size=1000, test_size=1000, sampling_ratio=0.5,
    ),
}


@functools.cache
def bench_clients(shape, data_seed):
    """The shards of a bench workload, each with a uniform plan and a solver
    plan for a random curvature row."""
    from isfl.cli import ExperimentConfig, build_experiment_data

    cfg = ExperimentConfig(**BENCH_SHAPES[shape])
    shards = build_experiment_data(cfg, data_seed)[0]
    counts = sum(shard.counts for shard in shards)
    pooled = CategoryDistribution(counts / counts.sum())
    rng = np.random.default_rng(data_seed)
    plans = [
        (shard.local_distribution,
         solve_is_weights(pooled, shard.local_distribution, rng.uniform(0.5, 3.0, cfg.classes)).q)
        for shard in shards
    ]
    return shards, plans, cfg.sampling_ratio


class TestBenchShapedSampler:
    """Every bench artifact comes from this stream: on the bench shards, the
    draws are numpy's own per-batch calls, so an edit that moves them fails
    here."""

    @pytest.mark.parametrize("data_seed", [0, 1])
    @pytest.mark.parametrize("shape", sorted(BENCH_SHAPES))
    def test_raw_block_draws_what_the_loop_draws(self, shape, data_seed):
        shards, plans, ratio = bench_clients(shape, data_seed)
        seeds = np.random.default_rng(data_seed).integers(2**32, size=len(shards))
        for batch_size in (128, 13, 7):
            cfg = TrainerConfig(batch_size=batch_size, sampling_ratio=ratio)
            for shard, pair, seed in zip(shards, plans, seeds):
                sizes = batch_sizes(len(shard), cfg)
                for plan in pair:
                    picks = draw_batches(shard, plan, sizes, seed)
                    assert np.array_equal(picks, numpy_per_batch(shard, plan, sizes, seed))

import functools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import isfl.trainer as trainer_mod
import oracles
from isfl.data import CategoryDistribution, ClientShard, Dataset
from isfl.isweights import SamplingPlan, solve_is_weights, uniform_plan
from isfl.model import ModelSpec, init_params
from isfl.trainer import (
    TrainerConfig,
    batch_sizes,
    draw_batches,
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


def plan_from_q(q, p_local):
    return SamplingPlan(CategoryDistribution(np.asarray(q, dtype=np.float64)), p_local)


class TestWeightedSampleBatch:
    def test_unit_weights_recover_local_distribution(self):
        labels = np.concatenate([np.zeros(40), np.ones(30), np.full(20, 2), np.full(10, 3)])
        shard = make_shard(labels.astype(int))
        plan = uniform_plan(shard.local_distribution)
        batch = weighted_sample_batch(shard, plan, 10_000, 0)
        observed = np.bincount(batch.labels, minlength=4)
        expected = 10_000 * shard.local_distribution.probs
        chi2 = ((observed - expected) ** 2 / expected).sum()
        assert chi2 < CHI2_99[3]

    def test_one_hot_plan(self):
        shard = make_shard([0, 0, 1, 1, 2, 2])
        plan = plan_from_q([0.0, 1.0, 0.0], shard.local_distribution)
        batch = weighted_sample_batch(shard, plan, 64, 1)
        assert np.all(batch.labels == 1)

    def test_solved_plan_frequencies(self):
        labels = np.concatenate([np.zeros(80), np.ones(10), np.full(10, 2)]).astype(int)
        shard = make_shard(labels)
        plan = plan_from_q([0.665, 0.330, 0.005], shard.local_distribution)
        batch = weighted_sample_batch(shard, plan, 100_000, 2)
        freq = np.bincount(batch.labels, minlength=3) / 100_000
        assert np.abs(freq - plan.q.probs).max() <= 0.02

    def test_support_missing_from_shard_rejected(self):
        rng = np.random.default_rng(0)
        ds = Dataset(rng.standard_normal((3, 3)), np.array([0, 0, 1]), 3)
        shard = ClientShard.build(0, np.arange(3), ds)  # no category-2 samples
        plan = SamplingPlan(
            q=CategoryDistribution(np.array([0.0, 0.0, 1.0])),
            p_local=CategoryDistribution(np.array([0.0, 0.0, 1.0])),
        )
        with pytest.raises(ValueError):
            weighted_sample_batch(shard, plan, 8, 0)

    def test_plan_outside_shard_categories_rejected(self):
        shard = make_shard([0, 0, 1, 1, 2])  # categories 0..2 present
        ds = Dataset(shard.dataset.features, shard.dataset.labels, 4)
        shard4 = ClientShard.build(0, np.arange(5), ds)
        plan = plan_from_q(
            [0.25, 0.25, 0.25, 0.25],
            CategoryDistribution(np.array([0.25, 0.25, 0.25, 0.25])),
        )
        with pytest.raises(ValueError):
            weighted_sample_batch(shard4, plan, 8, 0)


class TestLocalTrain:
    def test_zero_eta_leaves_params(self):
        shard = make_shard(np.tile([0, 1, 2], 10))
        spec = ModelSpec(3, (), 3)
        params = init_params(spec, seed=1)
        cfg = TrainerConfig(batch_size=8, local_epochs=2, eta=0.0)
        out = train_alone(spec, params, shard, uniform_plan(shard.local_distribution), cfg)
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
        out = train_alone(spec, params, shard, uniform_plan(shard.local_distribution), cfg)
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
        )
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
        train_alone(spec, params, shard, uniform_plan(shard.local_distribution), cfg)
        budget = int(0.5 * 33)
        assert sum(sizes) == 2 * budget
        assert sizes == [8, 8] * 2  # 16 = floor(0.5 * 33)
        assert batch_sizes(33, cfg) == (8, 8) * 2
        assert batch_sizes(35, cfg) == (8, 8, 1) * 2

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

    def test_one_seed_per_client_required(self):
        shard = make_shard(np.tile([0, 1], 4))
        spec = ModelSpec(3, (), 2)
        plan = uniform_plan(shard.local_distribution)
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
        plans = [uniform_plan(s.local_distribution) for s in (shard, other)]
        with pytest.raises(ValueError, match="equal shard of one dataset"):
            local_train(spec, init_params(spec, 0), [shard, other], plans, TrainerConfig(), [0, 1])

    def test_minibatch_gradient_unbiased(self):
        # Expected minibatch gradient should equal the q-weighted mixture of
        # per-category mean gradients.
        labels = np.concatenate([np.zeros(12), np.ones(9), np.full(6, 2)]).astype(int)
        shard = make_shard(labels, dim=2, seed=7)
        spec = ModelSpec(2, (), 3)
        params = init_params(spec, seed=8)
        plan = plan_from_q([0.5, 0.2, 0.3], shard.local_distribution)

        target = np.zeros(params.size)
        for c, qc in enumerate(plan.q.probs):
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
        assert np.allclose(plan.q.probs, [0.5, 0.5])
        assert np.allclose(plan.w, [0.5 / 0.9, 5.0])

    def test_single_category_shard(self):
        plan = rw_plan(make_shard([0, 0, 0]))
        assert np.allclose(plan.q.probs, [1.0])
        assert np.allclose(plan.w, [1.0])

    def test_weights_average_to_one(self):
        for seed in range(100):
            rng = np.random.default_rng(seed)
            labels = rng.integers(0, 4, size=30)
            shard = make_shard(labels, seed=seed)
            plan = rw_plan(shard)
            assert abs((shard.local_distribution.probs * plan.w).sum() - 1.0) <= 1e-12


class TestArrayBoundIntegers:
    """The numpy behaviour the batch sampler's byte identity rests on:
    ``rng.integers(0, highs)`` with an int64 array of bounds consumes the
    stream exactly as one scalar-bound call per run of equal bounds does.
    Checked on numpy 2.4.6 with PCG64, where both paths run Lemire's method
    on ``next_uint32`` below 2^32 and on ``next_uint64`` above, and a bound
    of 1 draws nothing. Another numpy may break it; the sampler's oracle
    test then fails too."""

    @staticmethod
    def per_run(highs, rng):
        runs = np.split(highs, np.flatnonzero(np.diff(highs)) + 1)
        return np.concatenate([rng.integers(0, run[0], size=run.size) for run in runs])

    @pytest.mark.parametrize(
        "highs",
        [
            [1, 1, 1],
            [1, 3, 3, 5, 5, 5, 1, 7],
            [2, 2, 2, 2**31 + 1, 2**31 + 1, 2**31 + 1, 2**31 + 1, 3],
            [2**32 + 5, 2**32 + 5, 2**32 + 5, 4, 1, 2**32 + 5],
            [5, 2**31 + 1, 1, 2**32 + 5, 9, 9],
        ],
        ids=["ones", "small-pools", "2^31+1", "2^32+5", "mixed"],
    )
    def test_array_bound_equals_one_scalar_call_per_run(self, highs):
        highs = np.array(highs, dtype=np.int64)
        for seed in range(20):
            rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
            rng.random(seed % 3)  # start some draws mid-way through a 64-bit word
            ref.random(seed % 3)
            rng.integers(0, 7, size=seed % 2)
            ref.integers(0, 7, size=seed % 2)
            assert np.array_equal(rng.integers(0, highs), self.per_run(highs, ref))
            assert rng.bit_generator.state == ref.bit_generator.state

    def test_a_bound_of_one_draws_nothing(self):
        rng = np.random.default_rng(3)
        start = rng.bit_generator.state
        assert np.array_equal(rng.integers(0, np.ones(6, dtype=np.int64)), np.zeros(6))
        assert rng.bit_generator.state == start

    def test_random_grouped_bounds(self):
        gen = np.random.default_rng(11)
        for seed in range(300):
            pools = gen.choice([1, 2, 3, 7, 50, 1000, 2**31 + 1, 2**32 + 5], size=4)
            highs = np.sort(pools[gen.integers(0, 4, size=gen.integers(1, 40))])
            rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
            assert np.array_equal(rng.integers(0, highs), self.per_run(highs, ref))
            assert rng.bit_generator.state == ref.bit_generator.state


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
    return plan_from_q(weights / weights.sum(), shard.local_distribution)


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


def halves_read(seed, state):
    """32-bit halves a fresh PCG64(seed) has handed out to reach ``state``,
    when only 32-bit draws were made: two per word fetched, less a buffered one."""
    ref = np.random.PCG64(seed)
    words = 0
    while ref.state["state"] != state["state"]:
        ref.random_raw()
        words += 1
    return 2 * words - state["has_uint32"]


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


def spy(monkeypatch, name):
    """Count the calls of trainer_mod.<name>, which still runs."""
    calls = []
    real = getattr(trainer_mod, name)
    monkeypatch.setattr(trainer_mod, name, lambda *a: calls.append(a) or real(*a))
    return calls


class TestRawStreamSampler:
    """The edges of the one-block PCG64 path (``_raw_draws``) and of the
    fallbacks to the per-batch generator calls (``_per_batch_draws``)."""

    SHARD_LABELS = np.repeat([0, 1, 2], [7, 2, 12])  # every pool holds >= 2 samples

    def plan(self, shard):
        return plan_from_q([0.5, 0.2, 0.3], shard.local_distribution)

    @pytest.mark.parametrize("seed", [4], ids=["fresh"])
    def test_empty_schedule_draws_nothing(self, seed):
        shard = make_shard(self.SHARD_LABELS)
        for plan in (self.plan(shard), np.full(len(shard), 1.0 / len(shard))):
            assert draw_batches(shard, plan, (), seed).shape == (0,)

    def test_lemire_flags_numpys_first_rejection(self):
        """Bounds above 2**31 reject about a third of their halves."""
        gen = np.random.default_rng(8)
        seen = set()
        for seed in range(150):
            bounds = gen.integers(2**31 + 1, 2**31 + 2**30, size=12)
            words = np.random.PCG64(seed).random_raw(6)
            halves = np.empty(12, dtype=np.uint64)
            halves[0::2] = words & 0xFFFFFFFF
            halves[1::2] = words >> 32
            positions, rejected = trainer_mod._lemire(halves, bounds.astype(np.uint64))
            rng = np.random.Generator(np.random.PCG64(seed))
            values = rng.integers(0, bounds)
            stepper = np.random.Generator(np.random.PCG64(seed))
            first = bounds.size
            for i, bound in enumerate(bounds):
                stepper.integers(0, int(bound))
                if halves_read(seed, stepper.bit_generator.state) > i + 1:
                    first = i
                    break
            assert (rejected[0] if rejected.size else bounds.size) == first
            assert np.array_equal(positions[:first], values[:first])
            seen.add(min(first, 3))
        assert seen == {0, 1, 2, 3}  # rejections at the start, later and none in the first three

    def test_injected_rejection_falls_back_to_the_loop(self, monkeypatch):
        shard = make_shard(self.SHARD_LABELS)
        real = trainer_mod._lemire

        def rejecting(halves, pools):
            positions, _ = real(halves, pools)
            return positions, np.array([halves.size // 2])

        monkeypatch.setattr(trainer_mod, "_lemire", rejecting)
        loops = spy(monkeypatch, "_per_batch_draws")
        for seed in range(5):
            assert_matches_oracle(shard, self.plan(shard), (16, 16, 9), seed)
        assert len(loops) == 5

    def test_real_rejection_falls_back_to_the_loop(self, monkeypatch):
        """A pool of 199,831 samples: numpy rejects about 1 half in 21,500
        (2**32 % 199831 of 2**32), and with seed 46 one of the first 512
        positions in it is rejected."""
        labels = np.repeat([0, 1], [199_831, 2])
        ds = Dataset(np.arange(labels.size, dtype=np.float64)[:, None], labels, 2)
        shard = ClientShard.build(0, np.arange(labels.size), ds)
        plan = plan_from_q([0.5, 0.5], shard.local_distribution)
        loops = spy(monkeypatch, "_per_batch_draws")
        assert_matches_oracle(shard, plan, (128,) * 8, 46)
        assert len(loops) == 1

    def test_one_sample_support_pool_uses_the_loop(self, monkeypatch):
        shard = make_shard(np.repeat([0, 1, 2], [9, 1, 6]))
        plan = plan_from_q([0.4, 0.3, 0.3], shard.local_distribution)
        loops = spy(monkeypatch, "_per_batch_draws")
        for seed in range(5):
            assert_matches_oracle(shard, plan, (8, 8, 3), seed)
        assert len(loops) == 5
        # a one-sample pool outside the support does not force the loop
        plan = plan_from_q([0.5, 0.0, 0.5], shard.local_distribution)
        assert_matches_oracle(shard, plan, (8, 8, 3), 0)
        assert len(loops) == 5
        # nor does one in the support that the run never draws, as with
        # seeds 8 and 9 here
        plan = plan_from_q([0.45, 0.1, 0.45], shard.local_distribution)
        for seed in (8, 9):
            assert_matches_oracle(shard, plan, (8, 8, 3), seed)
        assert len(loops) == 5


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
        (uniform_plan(shard.local_distribution),
         solve_is_weights(pooled, shard.local_distribution, rng.uniform(0.5, 3.0, cfg.classes)))
        for shard in shards
    ]
    return shards, plans, cfg.sampling_ratio


class TestBenchShapedSampler:
    @pytest.mark.parametrize("data_seed", [0, 1])
    @pytest.mark.parametrize("shape", sorted(BENCH_SHAPES))
    def test_raw_block_draws_what_the_loop_draws(self, monkeypatch, shape, data_seed):
        shards, plans, ratio = bench_clients(shape, data_seed)
        seeds = np.random.default_rng(data_seed).integers(2**32, size=len(shards))
        routes = spy(monkeypatch, "_raw_draws")
        for batch_size in (128, 13, 7):
            cfg = TrainerConfig(batch_size=batch_size, sampling_ratio=ratio)
            for shard, pair, seed in zip(shards, plans, seeds):
                sizes = batch_sizes(len(shard), cfg)
                for plan in pair:
                    picks = draw_batches(shard, plan, sizes, seed)
                    with monkeypatch.context() as m:
                        m.setattr(trainer_mod, "_raw_draws", lambda *a: None)
                        loop_picks = draw_batches(shard, plan, sizes, seed)
                    assert np.array_equal(picks, loop_picks)
        assert len(routes) == 3 * 2 * len(shards)


class TestRoute:
    """local_train on the golden config and on bench shapes never reaches
    the per-batch loop: a later edit to the path condition would."""

    def test_local_train_reads_one_raw_block_per_client(self, monkeypatch, tmp_path):
        from isfl.cli import ExperimentConfig, run_task
        from test_cli import GOLDEN_CONFIG

        def forbidden(*args):
            raise AssertionError("the per-batch loop ran")

        monkeypatch.setattr(trainer_mod, "_per_batch_draws", forbidden)
        blocks = spy(monkeypatch, "_raw_draws")
        cfg = ExperimentConfig(**GOLDEN_CONFIG)
        for seed in cfg.seeds:
            for strategy in ("fedavg", "rw_is", "isfl"):
                job = (cfg, strategy, seed, cfg.sampling_ratio, tmp_path / f"{strategy}_{seed}")
                (result,) = run_task([job])
                if isinstance(result, Exception):
                    raise result
        assert len(blocks) == 2 * 3 * cfg.rounds * cfg.clients

        shards, plans, _ = bench_clients("paper-scale", 0)
        spec = ModelSpec(32, (16,), 10)
        for pick in (0, 1):
            local_train(
                spec, init_params(spec, 0), shards, [pair[pick] for pair in plans],
                TrainerConfig(eta=0.0), list(range(len(shards))),
            )
        assert len(blocks) == 2 * 3 * cfg.rounds * cfg.clients + 2 * len(shards)

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import isfl.trainer as trainer_mod
import oracles
from isfl.data import CategoryDistribution, ClientShard, Dataset
from isfl.isweights import SamplingPlan, solve_is_weights, uniform_plan
from isfl.model import ModelSpec, backward_grad, init_params
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


def weighted_sample_batch(shard, plan, batch_size, rng):
    """One batch drawn by the run-long sampler."""
    return shard.dataset.subset(draw_batches(shard, plan, (batch_size,), rng))


def train_alone(spec, params, shard, plan, cfg):
    """local_train for one client: a stack of one."""
    return local_train(spec, params, [shard], [plan], [cfg])[0]


def plan_from_q(q, p_local):
    q = np.asarray(q, dtype=np.float64)
    pk = p_local.probs
    w = np.zeros_like(q)
    support = pk > 0
    w[support] = q[support] / pk[support]
    return SamplingPlan(
        q=CategoryDistribution(q), w=w, gamma_star=0.0, varpi=0.0, p_local=p_local
    )


class TestWeightedSampleBatch:
    def test_unit_weights_recover_local_distribution(self):
        labels = np.concatenate([np.zeros(40), np.ones(30), np.full(20, 2), np.full(10, 3)])
        shard = make_shard(labels.astype(int))
        plan = uniform_plan(shard.local_distribution)
        rng = np.random.default_rng(0)
        batch = weighted_sample_batch(shard, plan, 10_000, rng)
        observed = np.bincount(batch.labels, minlength=4)
        expected = 10_000 * shard.local_distribution.probs
        chi2 = ((observed - expected) ** 2 / expected).sum()
        assert chi2 < CHI2_99[3]

    def test_one_hot_plan(self):
        shard = make_shard([0, 0, 1, 1, 2, 2])
        plan = plan_from_q([0.0, 1.0, 0.0], shard.local_distribution)
        batch = weighted_sample_batch(shard, plan, 64, np.random.default_rng(1))
        assert np.all(batch.labels == 1)

    def test_solved_plan_frequencies(self):
        labels = np.concatenate([np.zeros(80), np.ones(10), np.full(10, 2)]).astype(int)
        shard = make_shard(labels)
        plan = plan_from_q([0.665, 0.330, 0.005], shard.local_distribution)
        batch = weighted_sample_batch(shard, plan, 100_000, np.random.default_rng(2))
        freq = np.bincount(batch.labels, minlength=3) / 100_000
        assert np.abs(freq - plan.q.probs).max() <= 0.02

    def test_support_missing_from_shard_rejected(self):
        rng = np.random.default_rng(0)
        ds = Dataset(rng.standard_normal((3, 3)), np.array([0, 0, 1]), 3)
        shard = ClientShard.build(0, np.arange(3), ds)  # no category-2 samples
        plan = SamplingPlan(
            q=CategoryDistribution(np.array([0.0, 0.0, 1.0])),
            w=np.array([0.0, 0.0, 1.0]),
            gamma_star=0.0,
            varpi=0.0,
            p_local=CategoryDistribution(np.array([0.0, 0.0, 1.0])),
        )
        with pytest.raises(ValueError):
            weighted_sample_batch(shard, plan, 8, np.random.default_rng(0))

    def test_plan_outside_shard_categories_rejected(self):
        shard = make_shard([0, 0, 1, 1, 2])  # categories 0..2 present
        ds = Dataset(shard.dataset.features, shard.dataset.labels, 4)
        shard4 = ClientShard.build(0, np.arange(5), ds)
        plan = plan_from_q(
            [0.25, 0.25, 0.25, 0.25],
            CategoryDistribution(np.array([0.25, 0.25, 0.25, 0.25])),
        )
        with pytest.raises(ValueError):
            weighted_sample_batch(shard4, plan, 8, np.random.default_rng(0))


class TestLocalTrain:
    def test_zero_eta_leaves_params(self):
        shard = make_shard(np.tile([0, 1, 2], 10))
        spec = ModelSpec(3, (), 3)
        params = init_params(spec, seed=1)
        cfg = TrainerConfig(batch_size=8, local_epochs=2, eta=0.0, seed=0)
        out = train_alone(spec, params, shard, uniform_plan(shard.local_distribution), cfg)
        assert np.array_equal(out.values, params.values)

    def test_reduces_to_full_batch_step(self, monkeypatch):
        shard = make_shard(np.tile([0, 1, 2], 8))
        spec = ModelSpec(3, (), 3)
        params = init_params(spec, seed=2)
        monkeypatch.setattr(
            trainer_mod,
            "draw_batches",
            lambda shard_, plan_, sizes_, rng_: np.tile(shard_.indices, len(sizes_)),
        )
        cfg = TrainerConfig(batch_size=len(shard), local_epochs=1, eta=0.01, seed=0)
        out = train_alone(spec, params, shard, uniform_plan(shard.local_distribution), cfg)
        grad = backward_grad(spec, params, shard.as_dataset())
        assert np.array_equal(out.values, params.values - 0.01 * grad.values)

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
        cfg = TrainerConfig(batch_size=16, local_epochs=3, eta=0.05, seed=11)
        a = train_alone(spec, params, shard, plan, cfg)
        b = train_alone(spec, params, shard, plan, cfg)
        assert np.array_equal(a.values, b.values)

    def test_epoch_touches_exactly_the_sampling_budget(self, monkeypatch):
        shard = make_shard(np.tile([0, 1, 2], 11))  # 33 samples
        spec = ModelSpec(3, (), 3)
        params = init_params(spec, seed=0)
        sizes = []
        real = trainer_mod.sgd_step_stack

        def recording(spec_, stack_, x_, labels_, eta_):
            sizes.append(x_.shape[1])
            return real(spec_, stack_, x_, labels_, eta_)

        monkeypatch.setattr(trainer_mod, "sgd_step_stack", recording)
        cfg = TrainerConfig(batch_size=8, local_epochs=2, eta=0.01, sampling_ratio=0.5, seed=0)
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
        cfg = TrainerConfig(batch_size=8, local_epochs=1, eta=0.01, seed=2)
        out = train_alone(spec, params, shard, probs, cfg)
        assert not np.array_equal(out.values, params.values)
        with pytest.raises(ValueError):
            train_alone(spec, params, shard, probs[:-1], cfg)
        with pytest.raises(ValueError):
            train_alone(spec, params, shard, np.full(len(shard), np.nan), cfg)

    def test_one_config_per_client_required(self):
        shard = make_shard(np.tile([0, 1], 4))
        spec = ModelSpec(3, (), 2)
        plan = uniform_plan(shard.local_distribution)
        with pytest.raises(ValueError):
            local_train(spec, init_params(spec, 0), [shard, shard], [plan, plan], [TrainerConfig()])

    def test_minibatch_gradient_unbiased(self):
        # Expected minibatch gradient should equal the q-weighted mixture of
        # per-category mean gradients.
        labels = np.concatenate([np.zeros(12), np.ones(9), np.full(6, 2)]).astype(int)
        shard = make_shard(labels, dim=2, seed=7)
        spec = ModelSpec(2, (), 3)
        params = init_params(spec, seed=8)
        plan = plan_from_q([0.5, 0.2, 0.3], shard.local_distribution)

        target = np.zeros(params.values.size)
        for c, qc in enumerate(plan.q.probs):
            pool = shard.dataset.subset(shard.category_pools[c])
            target += qc * backward_grad(spec, params, pool).values

        rng = np.random.default_rng(9)
        total = np.zeros_like(target)
        n_batches = 10_000
        for _ in range(n_batches):
            batch = weighted_sample_batch(shard, plan, 8, rng)
            total += backward_grad(spec, params, batch).values
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
        probs = gradnorm_plan(spec, init_params(spec, 0), shard)
        assert np.allclose(probs, [0.0, 0.25, 0.75])

    def test_identical_samples_uniform(self):
        row = np.array([0.3, -1.2, 0.8])
        ds = Dataset(np.tile(row, (4, 1)), np.full(4, 1), 3)
        shard = ClientShard.build(0, np.arange(4), ds)
        spec = ModelSpec(3, (), 3)
        probs = gradnorm_plan(spec, init_params(spec, 1), shard)
        assert np.allclose(probs, 0.25)

    def test_zero_norms_fall_back_to_uniform(self, monkeypatch):
        shard = make_shard([0, 1, 2, 0])
        spec = ModelSpec(3, (), 3)
        monkeypatch.setattr(
            trainer_mod, "per_sample_grad_norms", lambda *a: np.zeros(4)
        )
        assert np.allclose(gradnorm_plan(spec, init_params(spec, 0), shard), 0.25)

    def test_normalization_over_seeded_instances(self):
        spec = ModelSpec(3, (4,), 3)
        for seed in range(100):
            shard = make_shard(np.random.default_rng(seed).integers(0, 3, 12), seed=seed)
            probs = gradnorm_plan(spec, init_params(spec, seed), shard)
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
    present = np.array([pool.size > 0 for pool in shard.category_pools])
    weights = rng.random(present.size) * present * (rng.random(present.size) < 0.8)
    weights[rng.choice(np.flatnonzero(present))] += 0.5
    return plan_from_q(weights / weights.sum(), shard.local_distribution)


@st.composite
def lockstep_problems(draw):
    """Clients of unequal size, on one shared dataset or on their own ones,
    with category or per-sample plans and one trainer config each."""
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    n_classes = draw(st.integers(2, 4))
    dim = draw(st.integers(1, 4))
    sizes = draw(st.lists(st.integers(1, 24), min_size=1, max_size=4))
    shared = draw(st.booleans())

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
    base = TrainerConfig(
        batch_size=draw(st.integers(1, 9)),
        local_epochs=draw(st.integers(1, 3)),
        eta=draw(st.sampled_from([0.0, 0.05, 0.4])),
        sampling_ratio=draw(st.sampled_from([1.0, 0.7, 0.35])),
    )
    cfgs = []
    for k in range(len(sizes)):
        own_batch = draw(st.booleans())
        cfgs.append(
            dataclasses.replace(
                base,
                batch_size=draw(st.integers(1, 9)) if own_batch else base.batch_size,
                seed=int(rng.integers(2**32)),
            )
        )
    spec = ModelSpec(
        dim,
        draw(st.sampled_from([(), (3,), (4, 2)])),
        n_classes,
        activation=draw(st.sampled_from(["relu", "tanh"])),
    )
    return spec, init_params(spec, seed=seed % 1000), shards, plans, cfgs


class TestLockstepMatchesOracle:
    """The run-long sampler and the stacked trainer against the per-batch,
    per-client implementations they replaced (``tests/oracles.py``)."""

    @ORACLE_SETTINGS
    @given(lockstep_problems())
    def test_sampler_draws_what_the_per_batch_sampler_draws(self, problem):
        _, _, shards, plans, cfgs = problem
        for shard, plan, cfg in zip(shards, plans, cfgs):
            sizes = batch_sizes(len(shard), cfg)
            rng = np.random.default_rng(cfg.seed)
            picks = draw_batches(shard, plan, sizes, rng)
            again = draw_batches(shard, plan, sizes, np.random.default_rng(cfg.seed))
            assert np.array_equal(picks, again)

            ref_rng = np.random.default_rng(cfg.seed)
            per_batch = oracles._sample_by_weight if isinstance(plan, np.ndarray) else (
                oracles.weighted_sample_batch
            )
            batches = [per_batch(shard, plan, take, ref_rng) for take in sizes]
            assert picks.size == sum(sizes)
            if batches:
                drawn = shard.dataset.subset(picks)
                assert np.array_equal(drawn.features, np.vstack([b.features for b in batches]))
                assert np.array_equal(drawn.labels, np.concatenate([b.labels for b in batches]))
            # the same generator calls, so the streams end in the same state
            assert rng.bit_generator.state == ref_rng.bit_generator.state

    @ORACLE_SETTINGS
    @given(lockstep_problems())
    def test_local_train_matches_training_alone_bitwise(self, problem):
        spec, params, shards, plans, cfgs = problem
        start = params.values.copy()
        together = local_train(spec, params, shards, plans, cfgs)
        assert np.array_equal(params.values, start)  # the input is not trained in place
        assert len(together) == len(shards)
        for out, shard, plan, cfg in zip(together, shards, plans, cfgs):
            alone = oracles.local_train(spec, params, shard, plan, cfg)
            assert out.layout == alone.layout
            assert out.values.tobytes() == alone.values.tobytes()

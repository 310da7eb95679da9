import dataclasses
import pickle

import numpy as np
import pytest

import isfl.federation as federation_mod
from isfl.cli import ExperimentConfig, build_experiment_data
from isfl.data import (
    Dataset,
    PartitionConfig,
    generate_synthetic,
    global_distribution,
    select_probe_set,
    sort_and_partition,
    train_holdout_test_split,
)
from isfl.diagnostics import bounds_rows
from isfl.federation import (
    STRATEGIES,
    FederationConfig,
    RoundFailure,
    aggregate,
    derive_seed,
    run,
    run_lockstep,
    size_proportional_weights,
)
from isfl.isweights import uniform_plan
from isfl.lipschitz import estimate_sgd_stats
from isfl.model import ModelSpec, init_params
from isfl.trainer import TrainerConfig, local_train
from test_cli import GOLDEN_BITS_CONFIG


def small_problem(n_clients=3, nr=0.8, seed=0):
    source = generate_synthetic(3, 120, 5, separation=2.0, seed=seed)
    train, holdout, test = train_holdout_test_split(source, 60, 60, seed=seed + 1)
    cfg = PartitionConfig(
        n_clients=n_clients, shard_size=30, shards_per_client=2, nr=nr, seed=seed + 2
    )
    shards = sort_and_partition(train, cfg)
    probe = select_probe_set(holdout, 30, seed=seed + 3)
    return shards, probe, test


def fed_config(strategy, n_rounds=3, seed=7, eta=0.05):
    return FederationConfig(
        model=ModelSpec(5, (4,), 3),
        trainer=TrainerConfig(batch_size=16, local_epochs=2, eta=eta),
        n_rounds=n_rounds,
        strategy=strategy,
        varpi=0.05,
        seed=seed,
    )


class TestFederationConfig:
    def test_isfl_needs_a_positive_eta(self):
        # the isfl bound diagnostics divide by eta
        with pytest.raises(ValueError, match="eta must be positive for the isfl strategy"):
            fed_config("isfl", eta=0.0)
        for strategy in STRATEGIES:
            if strategy != "isfl":
                assert fed_config(strategy, eta=0.0).trainer.eta == 0.0


class TestAggregate:
    def test_idempotent_on_identical_params(self):
        spec = ModelSpec(4, (), 3)
        params = init_params(spec, seed=0)
        out = aggregate(np.stack([params, params]), np.array([0.5, 0.5]))
        assert np.allclose(out, params, atol=1e-15)

    def test_simple_arithmetic(self):
        out = aggregate(np.array([[1.0, 3.0], [3.0, 5.0]]), np.array([0.5, 0.5]))
        assert np.array_equal(out, np.array([2.0, 4.0]))

    def test_degenerate_weights_pick_first(self):
        spec = ModelSpec(4, (3,), 2)
        a, b = init_params(spec, seed=1), init_params(spec, seed=2)
        out = aggregate(np.stack([a, b]), np.array([1.0, 0.0]))
        assert np.array_equal(out, a)


class TestRun:
    def test_single_client_equals_centralized(self):
        shards, probe, test = small_problem(n_clients=1)
        cfg = fed_config("fedavg", n_rounds=4)
        metrics, _ = run(shards, cfg, test)

        params = init_params(cfg.model, seed=derive_seed(cfg.seed, 0))
        for rnd in range(1, 5):
            stack = local_train(
                cfg.model, params, shards,
                [uniform_plan(shards[0].local_distribution)],
                cfg.trainer, [derive_seed(cfg.seed, 1, rnd, 0)],
            )
            params = aggregate(stack, np.array([1.0]))
        from isfl.model import evaluate

        loss, acc = evaluate(cfg.model, params, test)
        assert metrics[-1].acc_test == acc
        assert metrics[-1].train_loss == pytest.approx(
            evaluate(cfg.model, params, shards[0].dataset.subset(shards[0].indices))[0]
        )

    def test_fedavg_equals_stubbed_isfl_bitwise(self, monkeypatch):
        shards, probe, test = small_problem()
        fed, _ = run(shards, fed_config("fedavg"), test)

        monkeypatch.setattr(
            federation_mod,
            "solve_is_weights",
            lambda p, pk, row, varpi: uniform_plan(pk),
        )
        stub, _ = run(shards, fed_config("isfl"), test, probe=probe)
        for a, b in zip(fed, stub):
            assert a.train_loss == b.train_loss
            assert a.acc_test == b.acc_test
            assert a.acc_pool == b.acc_pool

    def test_deterministic_across_reruns(self):
        shards, probe, test = small_problem()
        cfg = fed_config("isfl")
        a, log_a = run(shards, cfg, test, probe=probe)
        b, log_b = run(shards, cfg, test, probe=probe)
        for x, y in zip(a, b):
            assert x.train_loss == y.train_loss
        for x, y in zip(bounds_rows(log_a), bounds_rows(log_b), strict=True):
            assert (x["rho_realized"], x["rho_theory"]) == (y["rho_realized"], y["rho_theory"])

    def test_all_strategies_execute(self):
        shards, probe, test = small_problem()
        for strategy in ("fedavg", "rw_is", "gradnorm_is", "isfl"):
            metrics, log = run(shards, fed_config(strategy, n_rounds=2), test, probe=probe)
            assert len(metrics) == 2
            assert all(0.0 <= m.acc_test <= 1.0 for m in metrics)
            # every run's log has its header; only isfl records its rounds
            assert np.array_equal(log.pi, size_proportional_weights(shards))
            assert log.p_local.shape == (len(shards), 3) and log.local_epochs == 2
            assert len(log.records) == (2 if strategy == "isfl" else 0)

    def test_shards_unchanged_by_run(self):
        shards, probe, test = small_problem()
        before = [s.indices.copy() for s in shards]
        feats = [s.dataset.features.copy() for s in shards]
        run(shards, fed_config("isfl"), test, probe=probe)
        for s, idx, f in zip(shards, before, feats):
            assert np.array_equal(s.indices, idx)
            assert np.array_equal(s.dataset.features, f)

    def test_plans_refresh_only_at_rounds(self):
        shards, probe, test = small_problem()
        _, log = run(shards, fed_config("isfl", n_rounds=3), test, probe=probe)
        assert len(log.records) == 3
        p_locals = np.stack([s.local_distribution.probs for s in shards])
        # round 1 trains under unit weights and is scored on the first
        # curvature estimate, the one round 2's plans are solved from; from
        # round 2 on the plan in effect is the optimum for the recorded
        # in-effect curvature
        assert np.allclose(log.records[0].q_used, p_locals)
        assert np.array_equal(log.records[0].lipschitz, log.records[1].lipschitz)
        assert np.array_equal(log.records[0].q_star, log.records[1].q_used)
        for cur in log.records[1:]:
            assert np.array_equal(cur.q_used, cur.q_star)
        # plans changed between rounds (a refresh actually happened)
        assert not np.allclose(log.records[1].q_used, p_locals)

    def test_recorded_noise_statistics_are_the_exact_ones_at_each_aggregate(self, monkeypatch):
        shards, probe, test = small_problem(nr=0.5)
        cfg = fed_config("isfl", n_rounds=3)
        aggregates = []
        real = federation_mod.aggregate

        def keeping(*args):
            aggregates.append(real(*args))
            return aggregates[-1]

        monkeypatch.setattr(federation_mod, "aggregate", keeping)
        _, log = run(shards, cfg, test, probe=probe)
        pool = Dataset(
            np.vstack([s.dataset.features[s.indices] for s in shards]),
            np.concatenate([s.dataset.labels[s.indices] for s in shards]),
            shards[0].dataset.n_classes,
        )
        bounds = np.cumsum([0, *map(len, shards)])
        for rec, params in zip(log.records, aggregates, strict=True):
            stats = estimate_sgd_stats(cfg.model, params, pool, bounds, 16)
            assert np.array_equal(rec.sigma2, stats.sigma2) and rec.g2 == stats.g2
            assert np.all(rec.sigma2 > 0.0)

    def test_isfl_requires_probe(self):
        shards, _, test = small_problem()
        with pytest.raises(ValueError):
            run(shards, fed_config("isfl"), test)

    def test_errors_carry_round_index(self, monkeypatch):
        shards, probe, test = small_problem()
        calls = {"n": 0}
        real = federation_mod.local_train

        def flaky(*args, **kwargs):
            calls["n"] += 1
            if calls["n"] > 1:  # one call trains every client; fail in round 2
                raise ValueError("synthetic failure")
            return real(*args, **kwargs)

        monkeypatch.setattr(federation_mod, "local_train", flaky)
        with pytest.raises(RoundFailure) as exc_info:
            run(shards, fed_config("fedavg"), test)
        assert exc_info.value.round_index == 2

    def test_round_failure_survives_pickling(self):
        # jobs run in worker processes, which send their exceptions back pickled
        failure = pickle.loads(pickle.dumps(RoundFailure(5, "the run diverged")))
        assert type(failure) is RoundFailure
        assert failure.round_index == 5
        assert failure.message == "the run diverged"
        assert str(failure) == "round 5: the run diverged"

    def test_size_proportional_weights_unequal_shards(self):
        from isfl.data import ClientShard, generate_synthetic

        ds = generate_synthetic(3, 60, 5, separation=2.0, seed=0)
        shards = [
            ClientShard.build(0, np.arange(0, 90), ds),
            ClientShard.build(1, np.arange(90, 150), ds),
            ClientShard.build(2, np.arange(150, 180), ds),
        ]
        pi = size_proportional_weights(shards)
        sizes = np.array([90.0, 60.0, 30.0])
        assert np.all(np.abs(pi - sizes / sizes.sum()) <= 1e-12)
        assert pi.sum() == pytest.approx(1.0, abs=1e-12)

    @staticmethod
    def plan_refreshes(monkeypatch, strategy, planner, n_rounds):
        """Plans per client that ``planner`` makes over a run of ``strategy``."""
        shards, _, test = small_problem()
        calls = {"n": 0}
        real = getattr(federation_mod, planner)

        def counting(*args, **kwargs):
            calls["n"] += 1
            return real(*args, **kwargs)

        with monkeypatch.context() as patch:
            patch.setattr(federation_mod, planner, counting)
            run(shards, fed_config(strategy, n_rounds=n_rounds), test)
        return calls["n"] / len(shards)

    def test_gradnorm_plans_refresh_once_per_round(self, monkeypatch):
        # one plan per client after every round that has a next one
        for n_rounds in (1, 3):
            refreshes = self.plan_refreshes(monkeypatch, "gradnorm_is", "gradnorm_plan", n_rounds)
            assert refreshes == n_rounds - 1

    @pytest.mark.parametrize("n_rounds, refreshes", [(1, 0), (3, 2)])
    def test_rw_plans_refresh_once_per_round(self, monkeypatch, n_rounds, refreshes):
        assert self.plan_refreshes(monkeypatch, "rw_is", "rw_plan", n_rounds) == refreshes

    @pytest.mark.parametrize("n_rounds, refreshes", [(1, 1), (3, 2)])
    def test_isfl_skips_the_last_rounds_refresh(self, monkeypatch, n_rounds, refreshes):
        # round 1 is scored on its estimate; a later last round has no next round.
        # A refresh estimates every client's row in one call and solves one
        # plan per client
        shards, probe, test = small_problem()
        calls = {"estimate_lipschitz": 0, "solve_is_weights": 0}
        for name in calls:
            real = getattr(federation_mod, name)

            def counting(*args, _name=name, _real=real, **kwargs):
                calls[_name] += 1
                return _real(*args, **kwargs)

            monkeypatch.setattr(federation_mod, name, counting)
        run(shards, fed_config("isfl", n_rounds=n_rounds), test, probe=probe)
        assert calls == {
            "estimate_lipschitz": refreshes,
            "solve_is_weights": refreshes * len(shards),
        }

    def test_config_validation(self):
        with pytest.raises(ValueError):
            fed_config("nonsense")


def outcome(metrics):
    """A run's metrics without the wall-clock fields."""
    return [
        (m.round_index, m.train_loss, m.acc_test, m.acc_pool) for m in metrics
    ]


class TestRoundOne:
    """Round 1 is the same for every strategy, so ``run_lockstep`` trains it
    once for all of them, and every run ends it on those rows as it ends a
    later round."""

    def test_round_one_divergence_fails_as_before(self):
        # isfl's curvature phase still runs before the finiteness check
        shards, probe, test = small_problem()
        for strategy in STRATEGIES:
            with pytest.raises(RoundFailure) as exc_info:
                run(shards, fed_config(strategy, eta=1e30), test, probe=probe)
            assert exc_info.value.round_index == 1
            assert exc_info.value.message == (
                "parameter deviation is not finite; the run diverged" if strategy == "isfl"
                else "aggregate or pooled loss is not finite; the run diverged"
            )

    def test_round_one_shares_only_its_training(self):
        shards, probe, test = small_problem()
        cfgs = [fed_config(strategy) for strategy in ("fedavg", "isfl")]
        together = run_lockstep(shards, cfgs, test, probe)
        firsts = [metrics[0] for metrics, _ in together]
        assert firsts[0].phases["train"] == firsts[1].phases["train"] > 0.0
        for first in firsts:
            assert first.phases["aggregate"] > 0.0 and first.phases["eval"] > 0.0
            assert first.seconds >= sum(first.phases.values())
        # each run timed its own aggregation and evaluation
        assert (firsts[0].phases["aggregate"], firsts[0].phases["eval"]) != (
            firsts[1].phases["aggregate"], firsts[1].phases["eval"]
        )

    def test_a_failed_round_one_training_call_fails_every_strategy(self, monkeypatch):
        """Round 1's training call fails as a later shared call does: it is
        returned as every strategy's failure, and ``run`` raises it."""
        shards, probe, test = small_problem()

        def failing(*args, **kwargs):
            raise ValueError("synthetic failure")

        monkeypatch.setattr(federation_mod, "local_train", failing)
        cfgs = [fed_config(s) for s in STRATEGIES]
        together = run_lockstep(shards, cfgs, test, probe)
        assert len(together) == len(cfgs)
        for failure in together:
            assert isinstance(failure, RoundFailure)
            assert (failure.round_index, failure.message) == (1, "synthetic failure")
        with pytest.raises(RoundFailure) as alone:
            run(shards, cfgs[0], test, probe=probe)
        assert (alone.value.round_index, alone.value.message) == (1, "synthetic failure")

    def test_a_failed_round_one_aggregation_fails_every_strategy(self, monkeypatch):
        """Each run aggregates round 1 itself, and an error there fails it at
        round 1, as the shared training call's does."""
        shards, probe, test = small_problem()

        def failing(*args, **kwargs):
            raise ValueError("synthetic aggregation failure")

        monkeypatch.setattr(federation_mod, "aggregate", failing)
        cfgs = [fed_config(s) for s in STRATEGIES]
        together = run_lockstep(shards, cfgs, test, probe)
        assert len(together) == len(cfgs)
        for failure in together:
            assert isinstance(failure, RoundFailure)
            assert (failure.round_index, failure.message) == (1, "synthetic aggregation failure")
        with pytest.raises(RoundFailure) as alone:
            run(shards, cfgs[0], test, probe=probe)
        assert (alone.value.round_index, alone.value.message) == (
            1, "synthetic aggregation failure"
        )


def saved(log, path):
    """The bytes ``RunLog.save_jsonl`` writes for ``log``."""
    log.save_jsonl(path)
    return path.read_bytes()


class TestLockstep:
    """From round 2 on, one local_train call trains the clients of every
    strategy of a seed as one stack; each strategy must still end where it
    ends alone, bit for bit."""

    @pytest.mark.parametrize("ratio", [0.9, 0.5], ids=["ratio-0.9", "ratio-0.5"])
    def test_every_strategy_equals_its_solo_run(self, tmp_path, ratio):
        cfg = ExperimentConfig(**GOLDEN_BITS_CONFIG)
        shards, probe, test = build_experiment_data(cfg, 1)
        cfgs = [cfg.federation_config(s, derive_seed(1, 20), ratio) for s in STRATEGIES]
        together = run_lockstep(shards, cfgs, test, probe)
        assert len(together) == len(STRATEGIES)
        for fed_cfg, (metrics, log) in zip(cfgs, together):
            alone, alone_log = run(shards, fed_cfg, test, probe=probe)
            assert outcome(metrics) == outcome(alone)
            assert saved(log, tmp_path / "lockstep.jsonl") == saved(
                alone_log, tmp_path / "alone.jsonl"
            )

    @pytest.mark.parametrize("change", ["model", "trainer", "seed"])
    def test_configs_must_share_model_trainer_and_seed(self, change):
        shards, probe, test = small_problem()
        cfg = fed_config("isfl")
        other = {
            "model": dataclasses.replace(cfg, model=ModelSpec(5, (6,), 3)),
            "trainer": dataclasses.replace(cfg, trainer=TrainerConfig(batch_size=16)),
            "seed": dataclasses.replace(cfg, seed=cfg.seed + 1),
        }[change]
        with pytest.raises(ValueError, match="must share model, trainer config and seed"):
            run_lockstep(shards, [fed_config("fedavg"), other], test, probe)

    @pytest.mark.parametrize("where, fails, rows, message", [
        ("server", 3, [3, 12, 12, 9, 9], "synthetic failure"),
        ("plan", 3, [3, 12, 9, 9, 9], "per-sample probabilities must be non-negative and sum to 1"),
        ("train", 3, [3, 12, 12], "synthetic failure"),
        ("server", 1, [3, 9, 9, 9, 9], "synthetic failure"),
    ], ids=["server-phase", "next-plan", "training-call", "round-one-server-phase"])
    def test_a_failed_strategy_leaves_the_others_to_finish(
        self, tmp_path, monkeypatch, where, fails, rows, message
    ):
        """Round ``fails`` fails: gradnorm_is's server phase raises, in round
        3 or in the shared round 1, or its round-2 plan is rejected before
        round 3 trains, and the other strategies train on and finish as they
        would alone; or round 3's training call raises, which fails every
        strategy in it. Each failure is the one the strategy meets alone."""
        shards, probe, test = small_problem()
        cfgs = [fed_config(s, n_rounds=5) for s in STRATEGIES]
        solo = [run(shards, cfg, test, probe=probe) for cfg in cfgs]
        planned, trained = [], []
        real_plan, real_train = federation_mod.gradnorm_plan, federation_mod.local_train

        def planning(*args):
            planned.append(None)
            rnd = (len(planned) - 1) // len(shards) + 1  # one plan per client and round
            if where == "server" and rnd == fails:
                raise ValueError("synthetic failure")
            probs = real_plan(*args)
            return probs * np.nan if where == "plan" and rnd == fails - 1 else probs

        def training(spec, params, shards_, *args):
            trained.append(len(shards_))  # round 1 trains K rows once, for every strategy
            if where == "train" and len(trained) == fails:
                raise ValueError("synthetic failure")
            return real_train(spec, params, shards_, *args)

        monkeypatch.setattr(federation_mod, "gradnorm_plan", planning)
        monkeypatch.setattr(federation_mod, "local_train", training)
        together = run_lockstep(shards, cfgs, test, probe)
        assert trained == rows
        for cfg, result, (alone, alone_log) in zip(cfgs, together, solo, strict=True):
            if where == "train" or cfg.strategy == "gradnorm_is":
                assert isinstance(result, RoundFailure)
                assert (result.round_index, result.message) == (fails, message)
                planned.clear()
                trained.clear()
                with pytest.raises(RoundFailure) as alone_failure:
                    run(shards, cfg, test, probe=probe)
                assert (alone_failure.value.round_index, alone_failure.value.message) == (
                    fails, message
                )
            else:
                metrics, log = result
                assert outcome(metrics) == outcome(alone)
                assert saved(log, tmp_path / "lockstep.jsonl") == saved(
                    alone_log, tmp_path / "alone.jsonl"
                )


class TestGlobalDistributionWiring:
    def test_pooled_distribution_strictly_positive(self):
        shards, _, _ = small_problem()
        pooled = global_distribution(shards)
        assert np.all(pooled.probs > 0.0)

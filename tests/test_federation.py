import dataclasses
import pickle

import numpy as np
import pytest

import isfl.federation as federation_mod
from isfl.data import (
    PartitionConfig,
    generate_synthetic,
    global_distribution,
    select_probe_set,
    sort_and_partition,
    train_holdout_test_split,
)
from isfl.diagnostics import RunLog
from isfl.federation import (
    STRATEGIES,
    FederationConfig,
    RoundFailure,
    aggregate,
    derive_seed,
    open_run,
    run,
    size_proportional_weights,
)
from isfl.isweights import uniform_plan
from isfl.model import ModelSpec, init_params
from isfl.trainer import TrainerConfig, local_train


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
        metrics = run(shards, cfg, test)

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
        fed = run(shards, fed_config("fedavg"), test)

        monkeypatch.setattr(
            federation_mod,
            "solve_is_weights",
            lambda p, pk, row, varpi: uniform_plan(pk),
        )
        stub = run(shards, fed_config("isfl"), test, probe=probe)
        for a, b in zip(fed, stub):
            assert a.train_loss == b.train_loss
            assert a.acc_test == b.acc_test
            assert a.acc_pool == b.acc_pool

    def test_deterministic_across_reruns(self):
        shards, probe, test = small_problem()
        cfg = fed_config("isfl")
        a = run(shards, cfg, test, probe=probe)
        b = run(shards, cfg, test, probe=probe)
        for x, y in zip(a, b):
            assert x.train_loss == y.train_loss
            assert np.array_equal(x.rho_realized, y.rho_realized)

    def test_all_strategies_execute(self):
        shards, probe, test = small_problem()
        for strategy in ("fedavg", "rw_is", "gradnorm_is", "isfl"):
            metrics = run(shards, fed_config(strategy, n_rounds=2), test, probe=probe)
            assert len(metrics) == 2
            assert all(0.0 <= m.acc_test <= 1.0 for m in metrics)
            if strategy == "isfl":
                assert metrics[0].rho_realized is not None
            else:
                assert metrics[0].rho_realized is None

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
        recorder = RunLog()
        run(shards, fed_config("isfl", n_rounds=3), test, probe=probe, recorder=recorder)
        assert len(recorder.records) == 3
        p_locals = np.stack([s.local_distribution.probs for s in shards])
        # round 1 trains under unit weights and is scored on the first
        # curvature estimate, the one round 2's plans are solved from; from
        # round 2 on the plan in effect is the optimum for the recorded
        # in-effect curvature
        assert np.allclose(recorder.records[0].q_used, p_locals)
        assert np.array_equal(recorder.records[0].lipschitz, recorder.records[1].lipschitz)
        assert np.array_equal(recorder.records[0].q_star, recorder.records[1].q_used)
        for cur in recorder.records[1:]:
            assert np.array_equal(cur.q_used, cur.q_star)
        # plans changed between rounds (a refresh actually happened)
        assert not np.allclose(recorder.records[1].q_used, p_locals)

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

    def test_gradnorm_plans_refresh_once_per_round(self, monkeypatch):
        shards, probe, test = small_problem()
        calls = {"n": 0}
        real = federation_mod.gradnorm_plan

        def counting(*args, **kwargs):
            calls["n"] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(federation_mod, "gradnorm_plan", counting)
        run(shards, fed_config("gradnorm_is", n_rounds=3), test)
        assert calls["n"] == 3 * len(shards)

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
        (m.round_index, m.train_loss, m.acc_test, m.acc_pool, m.rho_realized, m.rho_theory)
        for m in metrics
    ]


class TestOpening:
    """Round 1 is the same for every strategy, so a run from an opening built
    once must equal a run that builds its own, bit for bit."""

    def test_shared_opening_matches_own_for_every_strategy(self, tmp_path):
        shards, probe, test = small_problem()
        opening = open_run(shards, fed_config("fedavg"), test)
        for strategy in STRATEGIES:
            cfg = fed_config(strategy)
            logs = {}
            outcomes = {}
            for name, given in (("own", None), ("shared", opening)):
                recorder = RunLog()
                metrics = run(shards, cfg, test, probe=probe, recorder=recorder, opening=given)
                outcomes[name] = outcome(metrics)
                recorder.save_jsonl(tmp_path / f"{strategy}_{name}.jsonl")
                logs[name] = (tmp_path / f"{strategy}_{name}.jsonl").read_bytes()
            assert outcomes["shared"] == outcomes["own"]
            assert logs["shared"] == logs["own"]
            if strategy == "isfl":
                assert len(logs["own"].splitlines()) == 1 + cfg.n_rounds

    @pytest.mark.parametrize("change", ["seed", "trainer", "model", "shards", "test_set"])
    def test_opening_of_another_run_raises(self, change):
        shards, probe, test = small_problem()
        cfg = fed_config("fedavg")
        opening = open_run(shards, cfg, test)
        if change == "seed":
            cfg = dataclasses.replace(cfg, seed=cfg.seed + 1)
        elif change == "trainer":
            cfg = dataclasses.replace(cfg, trainer=TrainerConfig(batch_size=16, local_epochs=1))
        elif change == "model":
            cfg = dataclasses.replace(cfg, model=ModelSpec(5, (6,), 3))
        elif change == "shards":
            shards = small_problem()[0]  # equal content, other objects
        else:
            test = small_problem()[2]
        with pytest.raises(ValueError, match="the opening was built for another run"):
            run(shards, cfg, test, opening=opening)

    def test_opening_arrays_are_read_only(self):
        shards, _, test = small_problem()
        opening = open_run(shards, fed_config("fedavg"), test)
        stack, params = opening.round_one[:2]
        arrays = [stack, params, opening.pool.features, opening.pool.labels]
        arrays += [a for ds in opening.own for a in (ds.features, ds.labels)]
        for array in arrays:
            with pytest.raises(ValueError, match="read-only"):
                array[0] += 1

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_round_one_divergence_fails_as_before(self):
        # isfl's curvature phase still runs before the finiteness check
        shards, probe, test = small_problem()
        opening = open_run(shards, fed_config("fedavg", eta=1e30), test)
        for strategy in STRATEGIES:
            for given in (None, opening):
                with pytest.raises(RoundFailure) as exc_info:
                    run(shards, fed_config(strategy, eta=1e30), test, probe=probe, opening=given)
                assert exc_info.value.round_index == 1
                assert exc_info.value.message == (
                    "parameter deviation is not finite; the run diverged" if strategy == "isfl"
                    else "aggregate or pooled loss is not finite; the run diverged"
                )

    def test_round_one_phases_are_the_openings(self):
        shards, probe, test = small_problem()
        opening = open_run(shards, fed_config("fedavg"), test)
        for strategy in ("fedavg", "isfl"):
            first = run(shards, fed_config(strategy), test, probe=probe, opening=opening)[0]
            for phase in ("train", "aggregate", "eval"):
                assert first.phases[phase] == opening.phases[phase] > 0.0
            assert first.seconds >= sum(first.phases.values())


class TestGlobalDistributionWiring:
    def test_pooled_distribution_strictly_positive(self):
        shards, _, _ = small_problem()
        pooled = global_distribution(shards)
        assert np.all(pooled.probs > 0.0)

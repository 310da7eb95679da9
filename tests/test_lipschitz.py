import logging

import numpy as np
import pytest

import isfl.model as model_mod
import oracles
from isfl.data import Dataset
from isfl.lipschitz import (
    GradientStats,
    ZeroDeviationError,
    estimate_lipschitz,
    estimate_sgd_stats,
    lipschitz_row,
)
from isfl.model import ModelSpec, init_params, mean_grads


def mean_grad(spec, params, ds):
    return mean_grads(spec, params, ds.features, ds.labels)


def one_row(spec, local, global_params, probe):
    """The curvature row of a single client, from a one-row stack."""
    previous = np.zeros((1, probe.n_classes))
    return estimate_lipschitz(spec, local[None], global_params, probe, previous)[0]


def count_backprops(monkeypatch):
    """Record the batch size of every model backward pass from now on."""
    calls = []
    real = model_mod._backprop

    def counting(spec_, views_, x_, labels_, mean):
        calls.append(len(labels_))
        return real(spec_, views_, x_, labels_, mean)

    monkeypatch.setattr(model_mod, "_backprop", counting)
    return calls


def lipschitz_row_from_grads(grads_a, grads_b, labels, n_classes, deviation_norm):
    """The curvature row of two whole per-sample gradient matrices."""
    diff_norms = np.linalg.norm(grads_a - grads_b, axis=1)
    return lipschitz_row(diff_norms, labels, n_classes, deviation_norm)


def probe_dataset(n_classes=3, per_class=6, dim=4, seed=0):
    rng = np.random.default_rng(seed)
    features = rng.standard_normal((n_classes * per_class, dim))
    labels = np.repeat(np.arange(n_classes), per_class)
    return Dataset(features, labels, n_classes)


class TestKernel:
    def test_quadratic_loss_gives_unit_row(self):
        # loss (theta - xi)^2 / 2 has gradient theta - xi: the per-sample
        # gradient difference equals the parameter difference for every sample.
        rng = np.random.default_rng(1)
        xi = rng.standard_normal(12)
        labels = np.repeat(np.arange(3), 4)
        theta_a, theta_b = 0.7, -0.4
        grads_a = (theta_a - xi)[:, None]
        grads_b = (theta_b - xi)[:, None]
        row = lipschitz_row_from_grads(grads_a, grads_b, labels, 3, abs(theta_a - theta_b))
        assert np.allclose(row, 1.0)

    def test_per_class_curvature_recovered(self):
        # loss c_i (theta - xi)^2 / 2 has gradient c_i (theta - xi).
        curvatures = np.array([0.5, 2.0, 3.5])
        labels = np.repeat(np.arange(3), 5)
        rng = np.random.default_rng(2)
        xi = rng.standard_normal(15)
        theta_a, theta_b = 1.2, 0.3
        grads_a = (curvatures[labels] * (theta_a - xi))[:, None]
        grads_b = (curvatures[labels] * (theta_b - xi))[:, None]
        row = lipschitz_row_from_grads(grads_a, grads_b, labels, 3, theta_a - theta_b)
        assert np.allclose(row, curvatures)

    def test_loss_scaling_scales_row(self):
        labels = np.array([0, 0, 1, 1])
        grads_a = np.arange(8.0).reshape(4, 2)
        grads_b = grads_a + np.array([1.0, -0.5])
        row = lipschitz_row_from_grads(grads_a, grads_b, labels, 2, 2.0)
        scaled = lipschitz_row_from_grads(3.0 * grads_a, 3.0 * grads_b, labels, 2, 2.0)
        assert np.allclose(scaled, 3.0 * row)

    def test_missing_category_filled_with_mean(self, caplog):
        labels = np.array([0, 0, 2])
        grads_a = np.ones((3, 2))
        grads_b = np.zeros((3, 2))
        with caplog.at_level(logging.WARNING):
            row = lipschitz_row_from_grads(grads_a, grads_b, labels, 4, 1.0)
        assert row[1] == pytest.approx(row[[0, 2]].mean())
        assert row[3] == pytest.approx(row[[0, 2]].mean())
        assert "absent" in caplog.text

    def test_zero_deviation_raises(self):
        with pytest.raises(ZeroDeviationError):
            lipschitz_row_from_grads(np.ones((2, 2)), np.ones((2, 2)), np.array([0, 1]), 2, 0.0)


class TestEstimateLipschitz:
    def test_matches_brute_force_per_sample_loop(self):
        spec = ModelSpec(4, (6,), 3)
        probe = probe_dataset()
        local = init_params(spec, seed=1)
        shift = init_params(spec, seed=2)
        global_params = local + 0.1 * shift
        row = one_row(spec, local, global_params, probe)

        deviation = np.linalg.norm(local - global_params)
        expected = np.zeros(3)
        for c in range(3):
            best = 0.0
            for n in np.flatnonzero(probe.labels == c):
                single = probe.subset(np.array([n]))
                diff = mean_grad(spec, local, single) - mean_grad(spec, global_params, single)
                best = max(best, np.linalg.norm(diff))
            expected[c] = best / deviation
        assert np.allclose(row, expected, rtol=1e-12)

    def test_symmetry(self):
        spec = ModelSpec(4, (), 3)
        probe = probe_dataset(seed=5)
        a = init_params(spec, seed=3)
        b = init_params(spec, seed=4)
        assert np.allclose(
            one_row(spec, a, b, probe),
            one_row(spec, b, a, probe),
            rtol=1e-15,
        )

    def test_identical_params_raise(self, caplog):
        # the curvature ratio is 0/0: the client keeps its previous row
        spec = ModelSpec(4, (), 3)
        params = init_params(spec, seed=0)
        previous = np.array([[0.5, 1.5, 2.5]])
        with caplog.at_level(logging.WARNING):
            rows = estimate_lipschitz(spec, params[None], params.copy(), probe_dataset(), previous)
        assert np.array_equal(rows, previous)
        assert rows is not previous
        assert "zero deviation" in caplog.text

    def test_cost_is_two_passes_over_probe(self, monkeypatch):
        # one pass for the aggregate and one per client: K + 1 for K clients
        spec = ModelSpec(4, (), 3)
        probe = probe_dataset()
        calls = count_backprops(monkeypatch)
        local = np.stack([init_params(spec, k) for k in range(1, 4)])
        estimate_lipschitz(spec, local, init_params(spec, 9), probe, np.ones((3, 3)))
        assert calls == [len(probe)] * 4

    @pytest.mark.parametrize("hidden", [(), (6,), (6, 5)])
    @pytest.mark.parametrize("activation", ["relu", "tanh"])
    def test_rows_equal_one_client_calls_bitwise(self, activation, hidden):
        spec = ModelSpec(4, hidden, 3, activation=activation)
        probe = probe_dataset(per_class=10, seed=2)
        local = np.stack([init_params(spec, k) for k in range(1, 5)])
        global_params = init_params(spec, seed=9)
        rows = estimate_lipschitz(spec, local, global_params, probe, np.ones((4, 3)))
        for k in range(4):
            assert rows[k].tobytes() == one_row(spec, local[k], global_params, probe).tobytes()

    def test_zero_deviation_client_keeps_its_previous_row(self, monkeypatch, caplog):
        spec = ModelSpec(4, (5,), 3)
        probe = probe_dataset()
        global_params = init_params(spec, seed=9)
        local = np.stack([init_params(spec, 1), global_params, init_params(spec, 3)])
        previous = np.arange(9.0).reshape(3, 3)
        calls = count_backprops(monkeypatch)
        with caplog.at_level(logging.WARNING):
            rows = estimate_lipschitz(spec, local, global_params, probe, previous)
        assert calls == [len(probe)] * 3  # the unmoved client costs no pass
        assert "client 1: zero deviation" in caplog.text
        assert np.array_equal(rows[1], previous[1])
        for k in (0, 2):
            assert np.array_equal(rows[k], one_row(spec, local[k], global_params, probe))
        assert np.array_equal(previous, np.arange(9.0).reshape(3, 3))  # not written


class TestDifferenceForm:
    """The difference-form rows against the blocked per-sample gradient
    matrices of ``oracles.estimate_lipschitz``."""

    # Worst relative row error measured over these cases: 5e-14 at a
    # deviation scale of 1e-3 and 1e-11 at 1e-5. It grows as 1/scale because
    # the oracle subtracts two nearly equal gradients. The naive
    # |g|^2 + |g_base|^2 - 2 g.g_base expansion reaches 3e-5 at small
    # deviations.
    REL_BOUND = 1e-9

    @pytest.mark.parametrize("scale", [1e-1, 1e-2, 1e-3, 1e-4, 1e-5])
    @pytest.mark.parametrize("hidden", [(), (6,), (6, 5)])
    @pytest.mark.parametrize("activation", ["relu", "tanh"])
    def test_matches_blocked_oracle(self, activation, hidden, scale):
        spec = ModelSpec(4, hidden, 3, activation=activation)
        # more probe rows than oracles.BLOCK_ROWS, so the oracle spans two blocks
        probe = probe_dataset(per_class=50, seed=len(hidden))
        global_params = init_params(spec, seed=11)
        shift = init_params(spec, seed=12)
        local = global_params + scale * shift / np.linalg.norm(shift)
        row = one_row(spec, local, global_params, probe)
        expected = oracles.estimate_lipschitz(spec, local, global_params, probe)
        assert np.all(expected > 0.0)
        assert np.max(np.abs(row - expected) / expected) <= self.REL_BOUND

    # inf, nan and 1e300 make the passes non-finite; at 1e160 the passes stay
    # finite and the summed squares overflow
    @pytest.mark.parametrize("bad", [np.inf, np.nan, 1e300, 1e160])
    def test_non_finite_probe_gradients_raise(self, bad):
        spec = ModelSpec(4, (5,), 3)
        probe = probe_dataset()
        probe.features[4, :] = bad
        with np.errstate(all="ignore"), pytest.raises(ValueError, match="not finite"):
            one_row(spec, init_params(spec, 1), init_params(spec, 2), probe)

    def test_non_finite_deviation_raises(self):
        spec = ModelSpec(4, (), 3)
        params = init_params(spec, 1)
        broken = params.copy()
        broken[0] = np.inf
        with np.errstate(all="ignore"), pytest.raises(ValueError, match="deviation is not finite"):
            one_row(spec, broken, params, probe_dataset())


class TestEstimateSgdStats:
    @pytest.mark.parametrize("batch_size", [5, 7, 16, 128])
    @pytest.mark.parametrize("hidden", [(), (6,), (6, 5)])
    @pytest.mark.parametrize("activation", ["relu", "tanh"])
    def test_matches_per_draw_oracle_bitwise(self, activation, hidden, batch_size):
        spec = ModelSpec(4, hidden, 3, activation=activation)
        probe = probe_dataset(per_class=50, seed=3)
        params = init_params(spec, seed=batch_size)
        for seed in range(3):
            stats = estimate_sgd_stats(spec, params, probe, batch_size, 8, seed=seed)
            expected = oracles.estimate_sgd_stats(spec, params, probe, batch_size, 8, seed=seed)
            assert stats == expected

    def test_full_batch_zero_variance(self):
        spec = ModelSpec(4, (), 3)
        probe = probe_dataset()
        stats = estimate_sgd_stats(spec, init_params(spec, 0), probe, len(probe), 5, seed=1)
        assert stats.sigma2 == 0.0

    def test_g2_dominates_mean_norm(self):
        spec = ModelSpec(4, (5,), 3)
        probe = probe_dataset(per_class=10)
        params = init_params(spec, seed=7)
        stats = estimate_sgd_stats(spec, params, probe, 6, 16, seed=2)
        assert stats.g2 >= np.linalg.norm(mean_grad(spec, params, probe)) ** 2 - 1e-12

    def test_duplication_invariance_in_expectation(self):
        spec = ModelSpec(3, (), 3)
        probe = probe_dataset(per_class=8, dim=3, seed=9)
        doubled = Dataset(
            np.vstack([probe.features, probe.features]),
            np.concatenate([probe.labels, probe.labels]),
            probe.n_classes,
        )
        params = init_params(spec, seed=4)
        base, dup = [], []
        for seed in range(50):
            base.append(estimate_sgd_stats(spec, params, probe, 8, 6, seed=seed).sigma2)
            dup.append(estimate_sgd_stats(spec, params, doubled, 8, 6, seed=1000 + seed).sigma2)
        rel = abs(np.mean(dup) - np.mean(base)) / np.mean(base)
        assert rel <= 0.2

    def test_needs_two_draws(self):
        spec = ModelSpec(4, (), 3)
        with pytest.raises(ValueError):
            estimate_sgd_stats(spec, init_params(spec, 0), probe_dataset(), 4, 1)


class TestContainers:
    def test_stats_validation(self):
        GradientStats(0.0, 1.0)
        with pytest.raises(ValueError):
            GradientStats(-1.0, 1.0)
        with pytest.raises(ValueError):
            GradientStats(0.0, np.nan)

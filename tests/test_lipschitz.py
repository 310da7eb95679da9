import logging
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import isfl.model as model_mod
import oracles
from isfl.data import Dataset, generate_synthetic
from isfl.lipschitz import estimate_lipschitz, estimate_sgd_stats, lipschitz_row
from isfl.model import ModelSpec, init_params


def mean_grad(spec, params, ds):
    return oracles.kernel_mean_grads(spec, params, ds.features, ds.labels)


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


@st.composite
def curvature_rows(draw):
    """Gradient-change norms, their labels, a class count and a deviation:
    the norms take a few values, zero among them, so that categories tie and
    rows hold zeros; labels may leave categories out; scales run from 1e-8
    to 1e8."""
    n_classes = draw(st.integers(1, 11))
    n = draw(st.integers(1, 59))
    labels = draw(st.lists(st.integers(0, n_classes - 1), min_size=n, max_size=n))
    values = draw(st.lists(st.floats(0.0, 10.0), min_size=1, max_size=4))
    norms = draw(st.lists(st.sampled_from([0.0, *values]), min_size=n, max_size=n))
    scale = 10.0 ** draw(st.integers(-8, 8))
    deviation = draw(st.floats(1e-8, 1e8))
    return np.array(norms) * scale, np.array(labels, dtype=np.int64), n_classes, deviation


class TestScatterMax:
    @settings(max_examples=500, deadline=None, derandomize=True, database=None)
    @given(curvature_rows())
    def test_row_equals_the_per_category_loop_bitwise(self, problem):
        got = lipschitz_row(*problem)
        want = oracles.lipschitz_row(*problem)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


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

    def test_a_moved_client_whose_gradients_did_not_change_raises(self):
        # client 1 moves only the first-layer weights of feature 0, which is
        # zero on every probe sample, so none of its per-sample gradients
        # changes and its row would be all zero
        spec = ModelSpec(4, (5,), 3)
        probe = probe_dataset()
        probe.features[:, 0] = 0.0
        global_params = init_params(spec, seed=9)
        dead = global_params.copy()
        dead[:5] += 1.0  # row 0 of the (4, 5) first-layer weights
        local = np.stack([init_params(spec, 1), dead])
        message = (
            "client 1: its per-sample gradients did not change on the probe although its"
            " parameters moved by 2.24; the aggregate's largest |parameter| is"
            f" {np.max(np.abs(global_params)):.3g}"
        )
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            estimate_lipschitz(spec, local, global_params, probe, np.ones((2, 3)))


class TestAnalyticCeiling:
    """On softmax regression each row entry is at most 1/2 max(|x|^2 + 1)
    over the category's probe samples x: a sample's gradient is
    (softmax(z) - y) [x; 1]^T, the softmax Jacobian has norm at most 1/2
    (Gershgorin), and the logits z move by at most |[x; 1]| times the
    parameter change. An oracle independent of the brute-force loop."""

    # Largest ratio of a row entry to its ceiling over these instances: 0.991;
    # 1e-9 of the ceiling is left for rounding
    def test_rows_stay_under_the_ceiling(self):
        rng = np.random.default_rng(9)
        for _ in range(300):
            n_classes, dim, k = (int(n) for n in rng.integers([2, 1, 1], [8, 9, 5]))
            # every category is present: a missing one gets the row mean,
            # which the ceiling does not bound
            labels = np.repeat(np.arange(n_classes), rng.integers(1, 6, size=n_classes))
            features = rng.standard_normal((labels.size, dim)) * 10 ** rng.uniform(-1, 1)
            probe = Dataset(features, labels, n_classes)
            spec = ModelSpec(dim, (), n_classes)
            global_params = init_params(spec, seed=int(rng.integers(1000)))
            global_params *= 10 ** rng.uniform(-1, 1)
            # deviations from 1e-6 to 10
            steps = rng.standard_normal((k, global_params.size))
            steps *= 10 ** rng.uniform(-6, 1, size=(k, 1)) / np.linalg.norm(steps, axis=1)[:, None]
            rows = estimate_lipschitz(
                spec, global_params + steps, global_params, probe, np.zeros((k, n_classes))
            )
            reach = (features**2).sum(axis=1) + 1.0
            ceiling = 0.5 * np.array([reach[labels == c].max() for c in range(n_classes)])
            # a category whose every softmax saturated may read exactly 0
            assert np.all(rows >= 0.0) and np.all(rows <= ceiling * (1.0 + 1e-9))


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

    def test_overflowing_local_pass_raises(self):
        # the deviation, 1e150 times the root of P, is finite (at 1e160 its
        # square would overflow); the local pass overflows in its last layer
        spec = ModelSpec(4, (5, 5), 3)
        params = init_params(spec, 1)
        with np.errstate(all="ignore"), pytest.raises(
            ValueError, match=r"^per-sample gradients are not finite; the run diverged$"
        ):
            one_row(spec, params + 1e150, params, probe_dataset())


def pooled(*datasets):
    """One dataset of the given clients' rows in order, and their bounds."""
    pool = Dataset(
        np.vstack([ds.features for ds in datasets]),
        np.concatenate([ds.labels for ds in datasets]),
        datasets[0].n_classes,
    )
    return pool, np.cumsum([0, *map(len, datasets)])


def per_sample_grads(spec, params, ds):
    """(N, P) gradients of each sample's own loss, as N batches of one."""
    return oracles.mean_grads(spec, params, ds.features[:, None], ds.labels[:, None])


class TestEstimateSgdStats:
    @pytest.mark.parametrize("batch_size", [1, 3, 5, 7, 16, 128])
    @pytest.mark.parametrize("hidden", [(), (6,), (6, 5)])
    @pytest.mark.parametrize("activation", ["relu", "tanh"])
    def test_matches_per_draw_oracle_bitwise(self, activation, hidden, batch_size):
        # the oracle takes one mean gradient per possible draw: every B-subset
        # of each client. Clients of B + 2, B and 7 samples: two draws per
        # sample left out, a batch that is the whole client, and for B < 7 a
        # client of many draws. The exact statistics are sums in another order
        # than any per-draw oracle's, so they match its moments to rounding;
        # the zeros of whole-client batches match bit for bit.
        spec = ModelSpec(4, hidden, 3, activation=activation)
        sizes = [batch_size + 2, batch_size, 7]
        per_class = sum(sizes) // 3 + 1
        data = probe_dataset(per_class=per_class, seed=3)
        # the classes in turn, so that every client holds each of them
        data = data.subset(np.argsort(np.arange(len(data)) % per_class, kind="stable"))
        params = init_params(spec, seed=batch_size)
        bounds = np.cumsum([0, *sizes])
        sigma2, g2_max = estimate_sgd_stats(
            spec, params, data.subset(range(bounds[-1])), bounds, batch_size
        )
        expected, g2 = [], []
        for lo, hi in zip(bounds[:-1], bounds[1:]):
            client = data.subset(range(lo, hi))
            draws = oracles.every_batch_mean_grads(spec, params, client, batch_size)
            full = oracles.mean_grads(spec, params, client.features, client.labels)
            expected.append(np.mean(np.sum((draws - full) ** 2, axis=1)))
            g2.append(np.mean(np.sum(draws**2, axis=1)))
        np.testing.assert_allclose(sigma2, expected, rtol=1e-12, atol=0.0)
        np.testing.assert_allclose(g2_max, max(g2), rtol=1e-12, atol=0.0)
        assert sigma2[0] > 0.0 and sigma2[1] == 0.0
        assert (sigma2[2] == 0.0) == (batch_size >= 7)

    def test_matches_monte_carlo_within_standard_errors(self):
        # a desk-scale client: 100 samples in 20 dimensions, batches of 16
        spec = ModelSpec(20, (16,), 5)
        client = probe_dataset(n_classes=5, per_class=20, dim=20, seed=11)
        params = init_params(spec, seed=5)
        sigma2, g2 = estimate_sgd_stats(spec, params, *pooled(client), 16)
        grads = per_sample_grads(spec, params, client)
        full = grads.mean(axis=0)
        rng = np.random.default_rng(0)
        n_draws = 20_000
        # uniform 16-subsets: the first 16 of a random permutation
        idx = np.argsort(rng.random((n_draws, len(client))), axis=1)[:, :16]
        draws = np.stack([grads[rows].mean(axis=0) for rows in idx])
        for observed, target in (
            (np.sum((draws - full) ** 2, axis=1), sigma2[0]),
            (np.sum(draws**2, axis=1), g2),
        ):
            stderr = observed.std() / np.sqrt(n_draws)
            assert stderr < 0.005 * target  # the check has teeth
            assert abs(observed.mean() - target) <= 4.0 * stderr

    def test_full_batch_zero_variance(self):
        spec = ModelSpec(4, (5,), 3)
        client = probe_dataset()
        params = init_params(spec, 0)
        full = mean_grad(spec, params, client)
        for batch_size in (len(client), len(client) + 1, len(client) + 30):
            sigma2, g2 = estimate_sgd_stats(spec, params, *pooled(client), batch_size)
            assert sigma2.tolist() == [0.0]
            assert g2 == pytest.approx(full @ full, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("batch_size", [1, 4])
    def test_one_sample_client(self, batch_size):
        spec = ModelSpec(4, (5,), 3)
        data = probe_dataset()
        params = init_params(spec, 2)
        lone, rest = data.subset([0]), data.subset(list(range(1, len(data))))
        with np.errstate(all="raise"):
            sigma2, g2 = estimate_sgd_stats(spec, params, *pooled(lone, rest), batch_size)
        grad = mean_grad(spec, params, lone)
        assert sigma2[0] == 0.0 and sigma2[1] > 0.0
        assert g2 >= grad @ grad * (1.0 - 1e-12)

    def test_unequal_clients_equal_lone_client_calls(self):
        spec = ModelSpec(5, (4,), 3)
        ds = generate_synthetic(3, 60, 5, separation=2.0, seed=0)
        clients = [ds.subset(range(0, 90)), ds.subset(range(90, 150)), ds.subset(range(150, 180))]
        params = init_params(spec, seed=1)
        sigma2, g2 = estimate_sgd_stats(spec, params, ds, [0, 90, 150, 180], 16)
        lone = [estimate_sgd_stats(spec, params, *pooled(c), 16) for c in clients]
        np.testing.assert_allclose(sigma2, [s[0] for s, _ in lone], rtol=1e-13)
        assert g2 == pytest.approx(max(g for _, g in lone), rel=1e-13)
        assert len(set(sigma2.tolist())) == 3

    def test_identical_samples_give_no_negative_variance(self):
        spec = ModelSpec(4, (6,), 3)
        one = probe_dataset().subset([4])
        copies = Dataset(np.repeat(one.features, 40, axis=0), np.repeat(one.labels, 40), 3)
        for seed in range(20):
            params = init_params(spec, seed=seed)
            sigma2, g2 = estimate_sgd_stats(spec, params, *pooled(copies), 8)
            assert 0.0 <= sigma2[0] <= 1e-12 * g2

    def test_g2_dominates_mean_norm(self):
        spec = ModelSpec(4, (5,), 3)
        probe = probe_dataset(per_class=10)
        params = init_params(spec, seed=7)
        _, g2 = estimate_sgd_stats(spec, params, *pooled(probe), 6)
        assert g2 >= np.linalg.norm(mean_grad(spec, params, probe)) ** 2 - 1e-12

    def test_duplication_invariance_in_expectation(self):
        # two copies of every sample keep the mean gradient and the spread of
        # the per-sample gradients; only the without-replacement factor
        # (n - B) / (B (n - 1)) of sigma2 moves with n
        spec = ModelSpec(3, (), 3)
        probe = probe_dataset(per_class=8, dim=3, seed=9)
        doubled = Dataset(
            np.vstack([probe.features, probe.features]),
            np.concatenate([probe.labels, probe.labels]),
            probe.n_classes,
        )
        params = init_params(spec, seed=4)
        n, batch_size = len(probe), 8
        base = estimate_sgd_stats(spec, params, *pooled(probe), batch_size)
        dup = estimate_sgd_stats(spec, params, *pooled(doubled), batch_size)

        def spread(sigma2, size):
            return sigma2[0] * batch_size * (size - 1) / (size - batch_size)

        assert spread(dup[0], 2 * n) == pytest.approx(spread(base[0], n), rel=1e-12, abs=0.0)
        assert dup[0][0] > base[0][0] > 0.0
        gbar = mean_grad(spec, params, probe)
        for sigma2, g2 in (base, dup):
            assert g2 - sigma2[0] == pytest.approx(gbar @ gbar, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("batch_size", [4, 18])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, 1e160])
    def test_non_finite_pass_raises(self, bad, batch_size):
        spec = ModelSpec(4, (5,), 3)
        params = init_params(spec, 0)
        params[3] = bad
        with np.errstate(all="ignore"), pytest.raises(ValueError, match="finite"):
            estimate_sgd_stats(spec, params, *pooled(probe_dataset()), batch_size)

    @pytest.mark.parametrize("bounds", [[0, 10], [1, 18], [0, 9, 9, 18], [0, 12, 9, 18]])
    def test_bounds_must_split_the_pool(self, bounds):
        spec = ModelSpec(4, (), 3)
        with pytest.raises(ValueError, match="client bounds"):
            estimate_sgd_stats(spec, init_params(spec, 0), probe_dataset(), bounds, 4)

    def test_batch_size_must_be_positive(self):
        spec = ModelSpec(4, (), 3)
        with pytest.raises(ValueError, match="batch_size"):
            estimate_sgd_stats(spec, init_params(spec, 0), *pooled(probe_dataset()), 0)


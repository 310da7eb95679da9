import logging

import numpy as np
import pytest

from isfl.data import CapacityError, CategoryDistribution
from isfl.isweights import (
    AlphaVector,
    SamplingPlan,
    brute_force_rho_min,
    compute_alpha,
    compute_gamma_star,
    kkt_partials,
    rho,
    solve_is_weights,
    uniform_plan,
)

# Worked three-category instance used throughout: pooled [0.5, 0.3, 0.2],
# local [0.8, 0.1, 0.1], curvatures [1, 2, 3], floor weight 0.05.
P3 = CategoryDistribution(np.array([0.5, 0.3, 0.2]))
PK3 = CategoryDistribution(np.array([0.8, 0.1, 0.1]))
L3 = np.array([1.0, 2.0, 3.0])


def random_instance(rng, n_classes, varpi):
    """Instance respecting the floor hypothesis p_j >= varpi * p_local_j."""
    while True:
        p = rng.dirichlet(np.ones(n_classes))
        pk = rng.dirichlet(np.ones(n_classes))
        if np.all(p >= varpi * pk) and np.all(p > 1e-4):
            break
    l_row = rng.uniform(0.05, 3.0, size=n_classes)
    return CategoryDistribution(p), CategoryDistribution(pk), l_row


class TestComputeAlpha:
    def test_equal_curvatures_degenerate(self):
        alpha = compute_alpha(np.array([1.0, 1.0, 1.0]))
        assert alpha.degenerate
        assert np.array_equal(alpha.alphas, np.zeros(3))

    def test_worked_values(self):
        # gaps are [11, 2, -13]/14, normalized by sqrt(294)/14
        alpha = compute_alpha(L3)
        expected = np.array([11.0, 2.0, -13.0]) / np.sqrt(294.0)
        assert np.allclose(alpha.alphas, expected, atol=1e-12)
        assert np.allclose(alpha.alphas, [0.6415, 0.1166, -0.7582], atol=1e-4)
        assert abs(alpha.alphas.sum()) <= 1e-9
        assert abs((alpha.alphas**2).sum() - 1.0) <= 1e-9

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(3)
        row = rng.uniform(0.1, 2.0, size=5)
        perm = rng.permutation(5)
        assert np.allclose(
            compute_alpha(row[perm]).alphas, compute_alpha(row).alphas[perm]
        )

    def test_zero_sum_unit_norm_over_1000_rows(self):
        rng = np.random.default_rng(17)
        for _ in range(1000):
            row = rng.uniform(0.01, 5.0, size=int(rng.integers(2, 8)))
            alpha = compute_alpha(row)
            if alpha.degenerate:
                continue
            assert abs(alpha.alphas.sum()) <= 1e-9
            assert abs((alpha.alphas**2).sum() - 1.0) <= 1e-9

    def test_smaller_curvature_gets_larger_alpha(self):
        rng = np.random.default_rng(23)
        for _ in range(100):
            row = rng.uniform(0.05, 3.0, size=4)
            alpha = compute_alpha(row)
            if alpha.degenerate:
                continue
            order = np.argsort(row)
            sorted_alpha = alpha.alphas[order]
            sorted_sq = row[order] ** 2
            for a, b in zip(range(3), range(1, 4)):
                if sorted_sq[a] < sorted_sq[b]:
                    assert sorted_alpha[a] > sorted_alpha[b]

    def test_all_zero_row_rejected(self):
        with pytest.raises(ValueError):
            compute_alpha(np.zeros(3))

    def test_alpha_vector_validation(self):
        with pytest.raises(ValueError):
            AlphaVector(np.array([0.5, 0.6]), degenerate=False)
        with pytest.raises(ValueError):
            AlphaVector(np.array([0.1, -0.1]), degenerate=True)


class TestComputeGammaStar:
    def test_degenerate_alpha_gives_zero(self):
        alpha = compute_alpha(np.ones(3))
        assert compute_gamma_star(P3, PK3, alpha, 0.05) == 0.0

    def test_worked_value(self):
        alpha = compute_alpha(L3)
        gamma = compute_gamma_star(P3, PK3, alpha, 0.05)
        # only the third category is down-weighted: (0.2 - 0.005) / 0.7582
        expected = 0.195 * np.sqrt(294.0) / 13.0
        assert gamma == pytest.approx(expected, rel=1e-12)
        assert gamma == pytest.approx(0.2572, abs=1e-4)

    def test_monotone_nonincreasing_in_varpi(self):
        rng = np.random.default_rng(31)
        for _ in range(50):
            p, pk, l_row = random_instance(rng, 4, 0.1)
            alpha = compute_alpha(l_row)
            levels = [
                compute_gamma_star(p, pk, alpha, v) for v in (0.01, 0.05, 0.1)
            ]
            assert all(a >= b - 1e-12 for a, b in zip(levels, levels[1:]))

    def test_floor_hypothesis_clamped_with_warning(self, caplog):
        p = CategoryDistribution(np.array([0.001, 0.499, 0.5]))
        pk = CategoryDistribution(np.array([0.9, 0.05, 0.05]))
        alpha = compute_alpha(np.array([1.0, 2.0, 3.0]))
        with caplog.at_level(logging.WARNING):
            gamma = compute_gamma_star(p, pk, alpha, 0.05)
        assert gamma >= 0.0
        assert "clamping" in caplog.text


class TestSolveIsWeights:
    def test_identity_when_no_gaps(self):
        plan = solve_is_weights(P3, P3, np.array([2.0, 2.0, 2.0]), 0.05)
        assert np.allclose(plan.q.probs, P3.probs, atol=1e-12)
        assert np.allclose(plan.w, 1.0, atol=1e-12)

    def test_worked_instance_against_oracle(self):
        # The penalty is a product, so for this curvature spread the true
        # minimum concentrates on the cheapest category with the other two at
        # their floors; the grid oracle confirms it.
        plan = solve_is_weights(P3, PK3, L3, 0.05)
        q_oracle, rho_oracle = brute_force_rho_min(P3, PK3, L3, 0.05, 0.005)
        rho_solver = rho(plan.q, P3, L3)
        assert rho_solver <= rho_oracle * (1 + 1e-3)
        assert np.abs(plan.q.probs - q_oracle).max() <= 2 * 0.005
        assert plan.q.probs[2] == 0.05 * PK3.probs[2]  # exactly at its floor
        assert plan.gamma_star == pytest.approx(0.2572, abs=1e-4)
        assert abs(plan.q.probs.sum() - 1.0) <= 1e-9
        assert np.all(plan.q.probs >= 0.05 * PK3.probs - 1e-12)

    def test_unsupported_category_mass_redistributed(self):
        pk = CategoryDistribution(np.array([0.7, 0.3, 0.0]))
        plan = solve_is_weights(P3, pk, np.array([1.0, 1.1, 1.2]), 0.05)
        assert plan.q.probs[2] == 0.0
        assert plan.w[2] == 0.0
        assert abs(plan.q.probs.sum() - 1.0) <= 1e-9
        support = pk.probs > 0
        assert abs((pk.probs[support] * plan.w[support]).sum() - 1.0) <= 1e-9

    def test_zero_pooled_probability_rejected(self):
        bad = CategoryDistribution(np.array([0.0, 0.5, 0.5]))
        with pytest.raises(ValueError):
            solve_is_weights(bad, PK3, L3, 0.05)

    def test_varpi_choice_barely_moves_penalty(self):
        rng = np.random.default_rng(0)
        for _ in range(6):
            p = CategoryDistribution(rng.dirichlet(np.ones(4) * 5))
            pk = CategoryDistribution(rng.dirichlet(np.ones(4) * 2))
            l_row = rng.uniform(0.5, 1.5, 4)
            r_small = rho(solve_is_weights(p, pk, l_row, 0.01).q, p, l_row)
            r_large = rho(solve_is_weights(p, pk, l_row, 0.05).q, p, l_row)
            assert abs(r_small - r_large) / r_small < 0.05

    def test_feasibility_over_random_instances(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            c = int(rng.integers(2, 6))
            varpi = float(rng.choice([0.01, 0.05]))
            p, pk, l_row = random_instance(rng, c, varpi)
            plan = solve_is_weights(p, pk, l_row, varpi)
            assert abs(plan.q.probs.sum() - 1.0) <= 1e-9
            assert np.all(plan.q.probs >= varpi * pk.probs - 1e-12)
            support = pk.probs > 0
            assert abs((pk.probs * plan.w).sum() - 1.0) <= 1e-9
            assert np.allclose(
                plan.w[support], plan.q.probs[support] / pk.probs[support]
            )

    def test_never_worse_than_local_mix(self):
        rng = np.random.default_rng(9)
        for _ in range(100):
            c = int(rng.integers(2, 6))
            p, pk, l_row = random_instance(rng, c, 0.05)
            plan = solve_is_weights(p, pk, l_row, 0.05)
            assert rho(plan.q, p, l_row) <= rho(pk, p, l_row) + 1e-12

    def test_kkt_partials_equal_on_free_coordinates(self):
        rng = np.random.default_rng(13)
        checked = 0
        while checked < 50:
            c = int(rng.integers(3, 6))
            varpi = float(rng.choice([0.01, 0.05]))
            p, pk, l_row = random_instance(rng, c, varpi)
            plan = solve_is_weights(p, pk, l_row, varpi)
            free = plan.q.probs > varpi * pk.probs + 1e-9
            if free.sum() < 2:
                continue
            parts = kkt_partials(plan.q, p, l_row)[free]
            spread = (parts.max() - parts.min()) / np.abs(parts).max()
            assert spread <= 1e-6
            checked += 1

    def test_plan_validation(self):
        with pytest.raises(ValueError):
            SamplingPlan(
                q=P3, w=np.array([1.0, 1.0, 1.0]), gamma_star=0.0,
                varpi=0.05, p_local=PK3,
            )

    def test_uniform_plan(self):
        plan = uniform_plan(PK3)
        assert np.allclose(plan.w, 1.0)
        assert np.array_equal(plan.q.probs, PK3.probs)


class TestRho:
    def test_matched_uniform(self):
        p = CategoryDistribution(np.full(3, 1 / 3))
        assert rho(p, p, L3) == pytest.approx(14.0 / 3.0, rel=1e-12)

    def test_one_hot_on_cheapest(self):
        c = 4
        p = CategoryDistribution(np.full(c, 1 / c))
        l_row = np.array([0.5, 1.0, 2.0, 3.0])
        q = CategoryDistribution(np.array([1.0, 0.0, 0.0, 0.0]))
        expected = (1 + (1 - 1 / c) ** 2 + (c - 1) / c**2) * 0.25
        assert rho(q, p, l_row) == pytest.approx(expected, rel=1e-12)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            rho(P3, CategoryDistribution(np.array([0.5, 0.5])), L3)
        with pytest.raises(ValueError):
            rho(np.tile(P3.probs, (2, 1)), P3, np.tile(L3, (3, 1)))

    @pytest.mark.parametrize("c", [3, 5, 10, 16])
    def test_stack_matches_rows_bitwise(self, c):
        rng = np.random.default_rng(c)
        p = CategoryDistribution(rng.dirichlet(np.ones(c)))
        q = rng.dirichlet(np.full(c, 0.5), size=7)
        l_rows = rng.uniform(0.1, 10.0, size=(7, c))
        stacked = rho(q, p, l_rows)
        assert stacked.shape == (7,)
        for k in range(7):
            assert stacked[k] == rho(CategoryDistribution(q[k]), p, l_rows[k])


class TestBruteForce:
    def test_degenerate_alpha_minimizer_near_pooled(self):
        q, _ = brute_force_rho_min(P3, PK3, np.array([2.0, 2.0, 2.0]), 0.05, 0.005)
        assert np.abs(q - P3.probs).max() <= 2 * 0.005

    def test_no_floor_matches_interior_stationary_point(self):
        # Mild curvature spread: the interior stationary point is the optimum
        # and the solver lands on it with exactly equal partial derivatives.
        p = CategoryDistribution(np.array([0.4, 0.35, 0.25]))
        pk = CategoryDistribution(np.array([0.6, 0.2, 0.2]))
        l_row = np.array([1.0, 1.05, 1.1])
        plan = solve_is_weights(p, pk, l_row, 0.0)
        q_oracle, rho_oracle = brute_force_rho_min(p, pk, l_row, 0.0, 0.005)
        assert rho(plan.q, p, l_row) <= rho_oracle + 1e-12
        assert np.abs(q_oracle - plan.q.probs).max() <= 2 * 0.005
        parts = kkt_partials(plan.q, p, l_row)
        assert (parts.max() - parts.min()) / parts.max() <= 1e-9

    def test_capacity_and_grid_limits(self):
        wide = CategoryDistribution(np.full(6, 1 / 6))
        with pytest.raises(CapacityError):
            brute_force_rho_min(wide, wide, np.ones(6), 0.05, 0.005)
        with pytest.raises(ValueError):
            brute_force_rho_min(P3, PK3, L3, 0.05, 0.05)

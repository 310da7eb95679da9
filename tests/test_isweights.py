import logging

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from isfl.data import CapacityError, CategoryDistribution
from isfl.isweights import (
    SamplingPlan,
    compute_alpha,
    compute_gamma_star,
    rho,
    solve_is_weights,
    uniform_plan,
    _effective_floors,
    _minimize_rho,
)
import isfl.isweights as isweights_mod
import oracles
from isfl.cli import ExperimentConfig, run_task
from oracles import brute_force_rho_min, enumerate_rho_min, kkt_partials

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
        assert np.array_equal(compute_alpha(np.array([1.0, 1.0, 1.0])), np.zeros(3))

    def test_worked_values(self):
        # gaps are [11, 2, -13]/14, normalized by sqrt(294)/14
        alpha = compute_alpha(L3)
        expected = np.array([11.0, 2.0, -13.0]) / np.sqrt(294.0)
        assert np.allclose(alpha, expected, atol=1e-12)
        assert np.allclose(alpha, [0.6415, 0.1166, -0.7582], atol=1e-4)
        assert abs(alpha.sum()) <= 1e-9
        assert abs((alpha**2).sum() - 1.0) <= 1e-9

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(3)
        row = rng.uniform(0.1, 2.0, size=5)
        perm = rng.permutation(5)
        assert np.allclose(
            compute_alpha(row[perm]), compute_alpha(row)[perm]
        )

    def test_zero_sum_unit_norm_over_1000_rows(self):
        rng = np.random.default_rng(17)
        for _ in range(1000):
            row = rng.uniform(0.01, 5.0, size=int(rng.integers(2, 8)))
            alpha = compute_alpha(row)
            if not alpha.any():
                continue
            assert abs(alpha.sum()) <= 1e-9
            assert abs((alpha**2).sum() - 1.0) <= 1e-9

    def test_smaller_curvature_gets_larger_alpha(self):
        rng = np.random.default_rng(23)
        for _ in range(100):
            row = rng.uniform(0.05, 3.0, size=4)
            alpha = compute_alpha(row)
            if not alpha.any():
                continue
            order = np.argsort(row)
            sorted_alpha = alpha[order]
            sorted_sq = row[order] ** 2
            for a, b in zip(range(3), range(1, 4)):
                if sorted_sq[a] < sorted_sq[b]:
                    assert sorted_alpha[a] > sorted_alpha[b]

    def test_all_zero_row_rejected(self):
        with pytest.raises(ValueError):
            compute_alpha(np.zeros(3))


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
        l_row = np.array([1.0, 2.0, 3.0])
        assert compute_gamma_star(p, pk, compute_alpha(l_row), 0.05) >= 0.0
        with caplog.at_level(logging.WARNING):
            solve_is_weights(p, pk, l_row, 0.05)
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

    def test_optimum_off_the_support_keeps_local_mix(self, caplog):
        # with no floors all mass goes to the cheaper category the client lacks
        pk = CategoryDistribution(np.array([1.0, 0.0]))
        with caplog.at_level(logging.WARNING):
            plan = solve_is_weights(
                CategoryDistribution(np.array([0.5, 0.5])), pk, np.array([1.0, 0.5]), 0.0
            )
        assert np.array_equal(plan.q.probs, [1.0, 0.0])
        assert np.array_equal(plan.w, [1.0, 0.0])
        assert "local mix" in caplog.text

    def test_clamping_logged_once(self, caplog):
        p = CategoryDistribution(np.array([0.001, 0.499, 0.5]))
        pk = CategoryDistribution(np.array([0.9, 0.05, 0.05]))
        with caplog.at_level(logging.WARNING):
            plan = solve_is_weights(p, pk, np.array([1.0, 2.0, 3.0]), 0.05)
        assert plan.clamped
        assert sum("clamping" in r.getMessage() for r in caplog.records) == 1

    @pytest.mark.parametrize("row, message", [
        (np.ones((3, 1)), "1-D"),
        (np.array([1.0, np.nan, 2.0]), "finite"),
        (np.array([1.0, -0.5, 2.0]), "non-negative"),
        (np.zeros(3), "at least one positive"),
        (np.ones(2), "equal length"),
    ], ids=["2-d", "nan", "negative", "all-zero", "short"])
    def test_bad_curvature_row_rejected(self, row, message):
        with np.errstate(all="raise"), pytest.raises(ValueError, match=message):
            solve_is_weights(P3, PK3, row, 0.05)

    @pytest.mark.parametrize("scale", [1e-300, 1e-6, 1e100, 1e300])
    def test_plan_does_not_depend_on_the_curvature_scale(self, scale):
        # q sits well away from p, so a scale at which the all-free face
        # counts as flat, and the solve returns p, fails
        p = CategoryDistribution(np.array([0.4, 0.35, 0.25]))
        pk = CategoryDistribution(np.array([0.6, 0.2, 0.2]))
        l_row = np.array([1.0, 1.05, 1.1])
        q = solve_is_weights(p, pk, l_row, 0.05).q.probs
        assert np.abs(q - p.probs).max() > 0.01
        assert np.abs(solve_is_weights(p, pk, scale * l_row, 0.05).q.probs - q).max() <= 1e-15

    def test_short_row_rejected_before_clamping(self, caplog):
        p = CategoryDistribution(np.array([0.001, 0.499, 0.5]))
        pk = CategoryDistribution(np.array([0.9, 0.05, 0.05]))
        with caplog.at_level(logging.WARNING), pytest.raises(ValueError, match="equal length"):
            solve_is_weights(p, pk, np.ones(2), 0.05)
        assert "clamping" not in caplog.text

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
            SamplingPlan(q=P3, p_local=CategoryDistribution(np.array([0.5, 0.5])))

    def test_weights_derive_from_q_and_p_local(self):
        pk = CategoryDistribution(np.array([0.7, 0.3, 0.0]))
        plan = SamplingPlan(q=CategoryDistribution(np.array([0.4, 0.6, 0.0])), p_local=pk)
        assert np.array_equal(plan.w, [0.4 / 0.7, 0.6 / 0.3, 0.0])
        assert not plan.clamped

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


def penalty(q, p, sq):
    return (1.0 + ((q - p) ** 2).sum()) * (q @ sq)


def solver_instance(rng, c):
    """Pooled mix, floors and squared curvatures for the solver, covering
    varpi = 0, categories the client does not hold, floors clamped to the
    pooled proportion and curvatures tied across categories."""
    p = rng.dirichlet(np.full(c, rng.choice([0.3, 1.0, 5.0])))
    p = (p + 1e-3) / (1.0 + c * 1e-3)
    pk = rng.dirichlet(np.full(c, rng.choice([0.3, 1.0, 5.0])))
    held = rng.random(c) >= 0.25
    if rng.random() < 0.3 and held.any():
        pk = np.where(held, pk, 0.0) / pk[held].sum()
    varpi = float(rng.choice([0.0, 0.01, 0.05, 0.2, 0.5, 0.9]))
    if rng.random() < 0.3:
        l_row = rng.choice([0.5, 1.0, 2.0], size=c)
    else:
        l_row = rng.uniform(0.05, 3.0, size=c)
    floors, clamped = _effective_floors(p, pk, varpi)
    return p, floors, l_row**2, clamped


def assert_matches_enumeration(p, floors, sq, multi_face):
    """The solver's q must be the full enumeration's, bit for bit. Where the
    optimum can sit on several faces at once (``multi_face``), those faces
    give the same q up to rounding and either may win, so q is held to
    rounding error instead: |dq| <= 1e-15 and a penalty at most 1 + 1e-15
    times the enumeration's."""
    q = _minimize_rho(p, floors, sq)
    q_enum = enumerate_rho_min(p, floors, sq)
    if not multi_face:
        assert np.array_equal(q, q_enum), (p, floors, sq)
    assert np.abs(q - q_enum).max() <= 1e-15
    assert penalty(q, p, sq) <= penalty(q_enum, p, sq) * (1 + 1e-15)


def assert_kkt_point(p, floors, sq):
    """The solver's q must be feasible and satisfy the KKT conditions."""
    q = _minimize_rho(p, floors, sq)
    assert abs(q.sum() - 1.0) <= 1e-9
    assert np.all(q >= floors - 1e-12)
    # stationarity: equal partials on the free coordinates, no
    # smaller ones on the coordinates held at their floors
    parts = kkt_partials(
        CategoryDistribution(q), CategoryDistribution(p), np.sqrt(sq)
    )
    free = q > floors + 1e-9
    assert free.any()
    scale = np.abs(parts).max()
    assert np.ptp(parts[free]) <= 1e-9 * scale
    assert np.all(parts[~free] >= parts[free].min() - 1e-9 * scale)


# instances per category count, fewer where the 2^C faces cost more
BITWISE_INSTANCES = {2: 700, 3: 700, 4: 700, 5: 700, 6: 300, 7: 200, 8: 150,
                     9: 100, 10: 50, 11: 20, 12: 12, 13: 10, 14: 10, 15: 10, 16: 10}


class TestMinimizeRho:
    def test_matches_face_enumeration_bitwise(self):
        # An exactly tied curvature next to a clamped floor can put the
        # optimum on several faces at once, so that family is held to
        # rounding error; every other instance must match bit for bit.
        exact = 0
        for c, count in BITWISE_INSTANCES.items():
            rng = np.random.default_rng(1000 + c)
            for _ in range(count):
                p, floors, sq, clamped = solver_instance(rng, c)
                multi_face = clamped and np.unique(sq).size < c
                assert_matches_enumeration(p, floors, sq, multi_face)
                exact += not multi_face
        assert exact >= 3000

    @pytest.mark.parametrize("c", [50, 100])
    def test_kkt_at_large_category_counts(self, c):
        rng = np.random.default_rng(c)
        for _ in range(3):
            p, floors, sq, _ = solver_instance(rng, c)
            assert_kkt_point(p, floors, sq)


def tied_clamped_instance(rng, c):
    """Curvatures tied across categories next to floors clamped to tiny
    pooled shares, where the optimum can sit on several faces at once."""
    p = rng.dirichlet(np.ones(c))
    rare = rng.random(c) < 0.3
    p = np.where(rare, 1e-3, p)
    p /= p.sum()
    pk = rng.dirichlet(np.ones(c)) + 2.0 * rare
    floors, _ = _effective_floors(p, pk / pk.sum(), float(rng.choice([0.2, 0.5, 0.9])))
    return p, floors, rng.choice([0.25, 1.0, 4.0], size=c)


def no_floor_instance(rng, c):
    """varpi = 0: every floor is 0."""
    p = rng.dirichlet(np.ones(c))
    if rng.random() < 0.5:
        return p, np.zeros(c), rng.choice([0.25, 1.0, 4.0], size=c)
    return p, np.zeros(c), rng.uniform(0.01, 9.0, size=c)


def zero_disc_instance(rng, c):
    """Curvatures 1 + b * z with b chosen so that the all-free face's
    discriminant is 0 in exact arithmetic: within about 1e-13 of 0 in
    floating point, on either side."""
    p = rng.dirichlet(np.ones(c))
    floors, _ = _effective_floors(p, rng.dirichlet(np.ones(c)), 0.05)
    while True:
        z = rng.random(c)
        # with base = p and mismatch 1, the discriminant is
        # (1 + b p.z)^2 - 3 b^2 sum (z - mean z)^2
        spread = np.sqrt(3.0 * ((z - z.mean()) ** 2).sum()) - p @ z
        if spread > 0.1:
            return p, floors, 1.0 + z / spread * (1.0 + rng.integers(-3, 4) * 1e-15)


def flat_gap_instance(rng, c):
    """Curvatures whose squared gap over all categories lies within a few
    parts in 1e4 of the flat-face threshold 1e-24, on either side."""
    p = rng.dirichlet(np.ones(c))
    floors, _ = _effective_floors(p, rng.dirichlet(np.ones(c)), 0.05)
    z = rng.random(c)
    scale = rng.uniform(0.25, 4.0)
    spread = 1e-12 / (scale * np.sqrt(((z - z.mean()) ** 2).sum()))
    return p, floors, scale * (1.0 + spread * (1.0 + rng.integers(-5, 6) * 2e-5) * z)


def floor_edge_instance(rng, c):
    """A floor moved to 1e-12 above the optimum's coordinate, give or take a
    few ulps, so that the optimum sits on the edge of the feasibility test
    q >= floors - 1e-12. The optimum is the enumeration's, which the solver
    equals bit for bit."""
    while True:
        p, floors, sq, _ = solver_instance(rng, c)
        room = enumerate_rho_min(p, floors, sq) - floors
        if np.sum(room > 1e-6) >= 2:
            break
    j = int(np.argmax(room))
    edge = floors[j] + room[j] + 1e-12
    floors = floors.copy()
    floors[j] = edge + rng.integers(-4, 5) * np.spacing(edge)
    return p, floors, sq


# instances per category count for the KKT face and KKT point checks, fewer
# where a solve costs more; 2,005 in all
KKT_INSTANCES = {**dict.fromkeys(range(2, 13), 160), **dict.fromkeys(range(13, 17), 50),
                 20: 30, 30: 15}
ADVERSARIAL = {
    "tied-clamped": tied_clamped_instance,
    "no-floors": no_floor_instance,
    "zero-disc": zero_disc_instance,
    "flat-gap": flat_gap_instance,
    "floor-edge": floor_edge_instance,
}
# families whose optimum can sit on several faces at once
MULTI_FACE = {"tied-clamped", "flat-gap"}
# category counts of the adversarial families, 40 instances each
ADVERSARIAL_SIZES = (3, 5, 8, 10, 16)


class TestScreenedSolver:
    """The solver scores only the faces a KKT point can lie on; the
    enumeration (``oracles.enumerate_rho_min``) scores all 2^C - 1 faces in
    the same row arithmetic. The solver must return its q bit for bit,
    ties included, except where the optimum sits on several faces at once.
    The random instances reach category counts too large to enumerate, so
    there the faces are checked against the reference ``_pinned_sets`` and
    each solve against the KKT conditions."""

    @pytest.mark.parametrize("c", KKT_INSTANCES)
    def test_matches_unscreened_solver_on_random_instances(self, c):
        # at category counts too large to enumerate too: the KKT faces
        # equal the reference's, and every solve is a feasible KKT point
        rng = np.random.default_rng(3000 + c)
        for _ in range(KKT_INSTANCES[c]):
            p, floors, sq, _ = solver_instance(rng, c)
            assert np.array_equal(isweights_mod._pinned_sets(p, floors, sq),
                                  oracles._pinned_sets(p, floors, sq))
            assert_kkt_point(p, floors, sq)

    @pytest.mark.parametrize("family", ADVERSARIAL)
    def test_matches_unscreened_solver_on_adversarial_instances(self, family):
        for c in ADVERSARIAL_SIZES:
            rng = np.random.default_rng([c, list(ADVERSARIAL).index(family)])
            for _ in range(40):
                p, floors, sq = ADVERSARIAL[family](rng, c)
                assert_matches_enumeration(p, floors, sq, family in MULTI_FACE)

    def test_matches_unscreened_solver_on_a_paper_scale_run(self, tmp_path, monkeypatch):
        # the solve inputs of one isfl run of the paper-scale bench workload:
        # README defaults with per_class 2200, eta 0.05 and 3 rounds
        recorded = []

        def record(p, floors, sq):
            recorded.append((p.copy(), floors.copy(), sq.copy()))
            return _minimize_rho(p, floors, sq)

        monkeypatch.setattr(isweights_mod, "_minimize_rho", record)
        cfg = ExperimentConfig(per_class=2200, eta=0.05, rounds=3)
        (result,) = run_task([(cfg, "isfl", 0, cfg.sampling_ratio, tmp_path / "run")])
        if isinstance(result, Exception):
            raise result
        assert len(recorded) == 2 * cfg.clients
        for p, floors, sq in recorded:
            assert_matches_enumeration(p, floors, sq, multi_face=False)


@st.composite
def solver_problems(draw, max_c=8):
    c = draw(st.integers(2, max_c))
    p = np.array(draw(st.lists(st.floats(0.05, 1.0), min_size=c, max_size=c)))
    # a category the client holds has at least one of its samples
    share = st.one_of(st.just(0.0), st.floats(1e-3, 1.0))
    pk = np.array(draw(st.lists(share, min_size=c, max_size=c)))
    assume(pk.sum() > 0.0)
    l_row = np.array(draw(st.lists(st.floats(0.05, 3.0), min_size=c, max_size=c)))
    varpi = draw(st.sampled_from([0.0, 0.01, 0.05, 0.2]))
    return (CategoryDistribution(p / p.sum()), CategoryDistribution(pk / pk.sum()),
            l_row, varpi)


PROPERTY_SETTINGS = settings(max_examples=150, deadline=None, derandomize=True, database=None)


class TestSolverProperties:
    @PROPERTY_SETTINGS
    @given(solver_problems())
    def test_feasible(self, problem):
        p, pk, l_row, varpi = problem
        plan = solve_is_weights(p, pk, l_row, varpi)
        floors, _ = _effective_floors(p.probs, pk.probs, varpi)
        assert abs(plan.q.probs.sum() - 1.0) <= 1e-9
        assert np.all(plan.q.probs >= floors - 1e-12)
        assert abs((pk.probs * plan.w).sum() - 1.0) <= 1e-9

    @PROPERTY_SETTINGS
    @given(solver_problems())
    def test_no_worse_than_face_enumeration(self, problem):
        p, pk, l_row, varpi = problem
        floors, _ = _effective_floors(p.probs, pk.probs, varpi)
        sq = l_row**2
        found = penalty(_minimize_rho(p.probs, floors, sq), p.probs, sq)
        assert found <= penalty(enumerate_rho_min(p.probs, floors, sq), p.probs, sq) * (1 + 1e-15)

    @PROPERTY_SETTINGS
    @given(solver_problems(max_c=12), st.randoms(use_true_random=False))
    def test_permutation_equivariant(self, problem, random):
        # distinct curvatures keep the minimizer unique
        p, pk, l_row, varpi = problem
        assume(np.diff(np.sort(l_row)).min() >= 1e-3)
        perm = np.array(random.sample(range(len(p)), len(p)))
        plan = solve_is_weights(p, pk, l_row, varpi)
        permuted = solve_is_weights(
            CategoryDistribution(p.probs[perm]), CategoryDistribution(pk.probs[perm]),
            l_row[perm], varpi,
        )
        assert np.allclose(permuted.q.probs, plan.q.probs[perm], rtol=0.0, atol=1e-9)

    @PROPERTY_SETTINGS
    @given(solver_problems(), st.integers(-1000, 1000))
    def test_scale_free(self, problem, k):
        # entries in [0.05, 3] times 2^k stay finite and normal, so the
        # scaling is exact and so is the division by the largest entry
        p, pk, l_row, varpi = problem
        plan = solve_is_weights(p, pk, l_row, varpi)
        scaled = solve_is_weights(p, pk, np.ldexp(l_row, k), varpi)
        assert np.array_equal(scaled.q.probs, plan.q.probs)

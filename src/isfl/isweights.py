"""Optimal per-category resampling weights for one client.

A client that resamples its local data with probabilities ``q`` instead of its
natural mix ``p_local`` changes the convergence penalty

    rho(q) = (1 + sum_i (p_i - q_i)^2) * (sum_i q_i * L_i^2),

where ``p`` is the pooled distribution over all clients and ``L_i`` the
client's per-category gradient-curvature estimate. The solver minimizes rho
over the simplex subject to the floors ``q_i >= varpi * p_local_i`` that keep
every category sampled. The water-filling structure: a zero-sum gap vector
(alpha) points from costly categories toward cheap ones, and a non-negative
level (gamma) slides along it; categories pin to their floors as the level
rises. Because the penalty is a product, descent can continue past the first
floor contact (re-solving on the unpinned categories) and may even concentrate
the remaining mass on the cheapest category. The KKT conditions say which
floor patterns an optimum can have: the top-k sets of an arrangement of C
lines, O(C^2) of them. The solver scores exactly those, all at once in
row-wise array arithmetic, and keeps the exact minimizer in O(C^3); it needs
neither the gap vector nor a level. compute_gamma_star reports the classic
first-contact level, which ``isfl solve`` prints beside the plan.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .data import CategoryDistribution

logger = logging.getLogger(__name__)

_DEGENERATE_EPS = 1e-12


@dataclass(frozen=True)
class SamplingPlan:
    """Resampling probabilities q over a client whose local mix is p_local.

    ``clamped`` flags instances whose floors had to be cut down to the pooled
    proportion to stay solvable.
    """

    q: CategoryDistribution
    p_local: CategoryDistribution
    clamped: bool = False

    def __post_init__(self):
        if len(self.q) != len(self.p_local):
            raise ValueError("q and p_local must have equal length")

    @property
    def w(self) -> np.ndarray:
        """Per-category weights q_i / p_local_i, and 0 where the client owns no
        samples."""
        pk = self.p_local.probs
        support = pk > 0.0
        w = np.zeros(pk.size)
        w[support] = self.q.probs[support] / pk[support]
        return w


def _curvature_squares(l_row: np.ndarray) -> np.ndarray:
    """The squares (L_i / max L)^2 of a checked curvature row: 1-D, finite,
    non-negative, not all zero. rho is linear in the squares, so dividing by
    the largest entry leaves the minimizer alone; the squares then lie in
    [0, 1] with a largest of exactly 1, whatever the row's scale."""
    l_row = np.asarray(l_row, dtype=np.float64)
    if l_row.ndim != 1 or l_row.size < 1:
        raise ValueError("need a 1-D curvature row")
    if np.any(l_row < 0.0) or not np.all(np.isfinite(l_row)):
        raise ValueError("curvatures must be finite and non-negative")
    if not l_row.any():
        raise ValueError("curvature row must have at least one positive entry")
    return (l_row / l_row.max()) ** 2


def compute_alpha(l_row: np.ndarray) -> np.ndarray:
    """Gap factors: normalized gaps between each category's squared curvature
    and the mean.

    Positive entries mark categories cheaper than average (to be up-sampled),
    negative ones costlier than average. The vector sums to zero and has unit
    norm, except in the degenerate all-equal case where it is identically zero.
    """
    sq = _curvature_squares(l_row)
    gaps = 1.0 - sq.size * sq / sq.sum()
    denom = np.sqrt((gaps**2).sum())
    if denom < _DEGENERATE_EPS:
        return np.zeros(sq.size)
    return gaps / denom


def _effective_floors(
    p: np.ndarray, p_local: np.ndarray, varpi: float
) -> tuple[np.ndarray, bool]:
    """Floors varpi * p_local, cut down to p where they would exceed it, and
    whether any was."""
    if not 0.0 <= varpi < 1.0:
        raise ValueError("varpi must lie in [0, 1)")
    if p.size != p_local.size:
        raise ValueError("p and p_local must have equal length")
    floors = varpi * p_local
    return np.minimum(floors, p), bool((floors > p).any())


def compute_gamma_star(
    p: CategoryDistribution,
    p_local: CategoryDistribution,
    alpha: np.ndarray,
    varpi: float,
) -> float:
    """Water-filling level: the smallest slack-to-gap ratio among down-weighted
    categories, so that every category stays at or above its floor.

    Returns 0 when no category is down-weighted (degenerate gaps included).
    """
    floors, _ = _effective_floors(p.probs, p_local.probs, varpi)
    if alpha.size != floors.size:
        raise ValueError("p, p_local and alpha must have equal length")
    neg = alpha < 0.0
    candidates = (p.probs[neg] - floors[neg]) / (-alpha[neg])
    candidates = candidates[candidates >= 0.0]
    return float(candidates.min()) if candidates.size else 0.0


def _pinned_sets(p: np.ndarray, floors: np.ndarray, sq: np.ndarray) -> np.ndarray:
    """Every floor pattern a KKT point can have, as rows of a boolean matrix.

    With A the mismatch and B the curvature factor of rho, t = A / (2B) > 0
    and mu the scaled multiplier, category j sits on its floor exactly when
    (floors_j - p_j) + sq_j * t >= mu. The pinned set is therefore a top-k
    prefix of the order of the C lines (floors_j - p_j) + sq_j * t, and that
    order only changes where two lines cross: sorting at every crossing and
    inside every interval between crossings yields O(C^2) distinct sets. The
    all-pinned set has no free mass and is left out. Rows come in the order
    of the floor-pattern integers (bit j for category j), the order a full
    enumeration visits them in, so candidates of equal value tie-break alike.
    """
    c = p.size
    a = floors - p
    with np.errstate(divide="ignore", invalid="ignore"):
        cross = (a[None, :] - a[:, None]) / (sq[:, None] - sq[None, :])
    cross = _without_repeats(np.sort(cross[np.isfinite(cross) & (cross > 0.0)]))
    edges = np.concatenate(([0.0], cross))
    levels = np.sort(np.concatenate((cross, (edges[:-1] + edges[1:]) / 2, [2.0 * edges[-1] + 1.0])))

    order = np.argsort(-(a[None, :] + levels[:, None] * sq[None, :]), axis=1, kind="stable")
    rank = np.argsort(order, axis=1)
    # prefix k of a level differs from the previous level's exactly when one
    # of its first k categories ranked k or lower there; level 0 has them all
    ahead = rank.take(order[1:] + c * np.arange(len(levels) - 1)[:, None])
    rows, ks = np.nonzero(np.maximum.accumulate(ahead, axis=1)[:, :-1] >= np.arange(1, c))
    masks = np.concatenate((
        np.zeros((1, c), dtype=bool),
        rank[0] <= np.arange(c - 1)[:, None],
        rank[rows + 1] <= ks[:, None],
    ))
    return _without_repeats(masks[np.lexsort(masks.T)])


def _without_repeats(rows: np.ndarray) -> np.ndarray:
    """A sorted array without the repeats of any entry (or row)."""
    repeat = rows[1:] == rows[:-1]
    keep = np.ones(len(rows), dtype=bool)
    keep[1:] = ~repeat if rows.ndim == 1 else ~repeat.all(axis=1)
    return rows[keep]


def _penalty(q: np.ndarray, p: np.ndarray, sq: np.ndarray) -> np.ndarray:
    """rho of each plan along the last axis of ``q``, from the squared
    curvatures ``sq``. The sums run over that axis alone, so a plan's value
    does not depend on the plans stacked beside it."""
    return (1.0 + np.sum((p - q) ** 2, axis=-1)) * np.sum(q * sq, axis=-1)


def _minimize_rho(p: np.ndarray, floors: np.ndarray, sq: np.ndarray) -> np.ndarray:
    """Exact minimizer of rho over {sum q = 1, q >= floors}.

    The minimum sits either at a stationary point of some face (a subset of
    coordinates pinned to their floors) or at a vertex. On each face the
    stationarity conditions confine q to a line: the mass-shifted pooled mix
    plus t times the curvature-gap direction of the unpinned set; the
    self-consistent levels t solve a quadratic. Only the O(C^2) faces a KKT
    point can lie on are scored (see _pinned_sets), so a solve costs O(C^3).
    Every face is one row of masked (F, C) arithmetic whose sums run along
    the row, so its candidates round as they would among all 2^C - 1 faces.
    The candidates are scored face by face, lower level first, then the
    vertices; invalid and infeasible ones score inf, and the first smallest
    wins, as it does in the full enumeration. A vertex always scores finite:
    its slack 1 - sum(floors) is at least 1 - varpi > 0, and every entry of
    q, p and sq lies in [0, 1].
    """
    c = p.size
    pinned = _pinned_sets(p, floors, sq)
    n = c - pinned.sum(axis=1)
    shift = (1.0 - np.where(pinned, floors, p).sum(axis=1)) / n
    base = np.where(pinned, floors, p + shift[:, None])
    mean = np.where(pinned, 0.0, sq).sum(axis=1) / n
    gap = np.where(pinned, 0.0, mean[:, None] - sq)
    gap_sq = (gap * gap).sum(axis=1)
    mismatch0 = 1.0 + ((base - p) ** 2).sum(axis=1)
    curvature0 = (base * sq).sum(axis=1)
    with np.errstate(invalid="ignore", divide="ignore"):
        # stationary levels: 2 t * curvature(t) = mismatch(t), a quadratic in t
        root = np.sqrt(curvature0**2 - 3.0 * gap_sq * mismatch0)
        t = (curvature0[:, None] + root[:, None] * [-1.0, 1.0]) / (3.0 * gap_sq[:, None])
    # a flat face has the one candidate t = 0; NaN marks the levels that are
    # no candidate: the second of a flat face, a negative one, or either one
    # of a negative discriminant
    flat = ((n == 1) | (gap_sq < 1e-24))[:, None]
    t = np.where(flat, [0.0, np.nan], np.where(t >= 0.0, t, np.nan))

    # faces' candidates in (face, level) order, then vertex j: every category
    # at its floor but j, which takes the rest
    q = np.concatenate((
        (base[:, None, :] + t[..., None] * gap[:, None, :]).reshape(-1, c),
        floors + np.eye(c) * (1.0 - floors.sum()),
    ))
    with np.errstate(invalid="ignore", over="ignore"):
        value = _penalty(q, p, sq)
    value[np.isnan(value) | (q < floors - 1e-12).any(axis=1)] = np.inf
    return q[np.argmin(value)].copy()


def solve_is_weights(
    p: CategoryDistribution,
    p_local: CategoryDistribution,
    l_row: np.ndarray,
    varpi: float = 0.05,
) -> SamplingPlan:
    """Optimal resampling plan for one client.

    ``q`` is the exact penalty minimizer over the floored simplex. Mass
    assigned to categories the client does not own is redistributed
    proportionally over its support. If the support is left with no mass at
    all (possible only at varpi = 0), the plan falls back to the local mix.
    """
    p_arr = p.probs
    pk_arr = p_local.probs
    if np.any(p_arr <= 0.0):
        raise ValueError("pooled distribution must be strictly positive")
    sq = _curvature_squares(l_row)
    if sq.size != p_arr.size:
        raise ValueError("the curvature row and p must have equal length")
    floors, clamped = _effective_floors(p_arr, pk_arr, varpi)
    if clamped:
        logger.warning(
            "floor exceeds pooled proportion for categories %s; clamping",
            np.flatnonzero(varpi * pk_arr > p_arr).tolist(),
        )
    q = _minimize_rho(p_arr, floors, sq)

    support = pk_arr > 0.0
    if not support.all():
        q = np.where(support, q, 0.0)
        if q.sum() == 0.0:
            # without floors the optimum can sit wholly off the client's data
            logger.warning("optimum leaves the client's categories empty; keeping its local mix")
            q = pk_arr
        q = q / q.sum()
    return SamplingPlan(CategoryDistribution(q), p_local, clamped)


def uniform_plan(p_local: CategoryDistribution) -> SamplingPlan:
    """The no-resampling plan: unit weights, q equal to the local mix."""
    return SamplingPlan(p_local, p_local)


def rho(
    q: CategoryDistribution | np.ndarray,
    p: CategoryDistribution,
    l_row: np.ndarray,
) -> float | np.ndarray:
    """Convergence penalty of resampling with q against pooled mix p.

    Takes one plan and one curvature row (``q`` a distribution or a length-C
    vector, ``l_row`` of length C) and returns a float, or a K x C stack of
    plans with the matching K x C curvature rows and returns the K penalties.
    The sums run over the last axis, so each stacked row equals its one-row
    value bit for bit.
    """
    q = q.probs if isinstance(q, CategoryDistribution) else np.asarray(q, dtype=np.float64)
    l_row = np.asarray(l_row, dtype=np.float64)
    if q.ndim not in (1, 2) or q.shape[-1] != len(p) or l_row.shape != q.shape:
        raise ValueError("q, p and the curvature rows must have equal length")
    value = _penalty(q, p.probs, l_row**2)
    return float(value) if q.ndim == 1 else value

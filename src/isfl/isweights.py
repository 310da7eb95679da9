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
lines, O(C^2) of them. The solver searches exactly those and keeps the exact
minimizer in O(C^3); it needs neither the gap vector nor a level. A
vectorized screen first drops the patterns whose candidates cannot attain
the minimum, so the per-pattern loop visits only a few of them.
compute_gamma_star reports the classic first-contact level, which ``isfl
solve`` prints beside the plan.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .data import CategoryDistribution

logger = logging.getLogger(__name__)

_DEGENERATE_EPS = 1e-12

# Relative rounding margin of the face screen (see _screen_faces). The screen
# and the exact face loop round their sums of at most C terms differently, by
# at most a few C * 1.1e-16 of each sum's scale; 1e-10 covers that for any C
# a solve can take.
_SCREEN_MARGIN = 1e-10
_LEVEL_SIGNS = np.array([[-1.0], [1.0]])


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


def _curvature_row(l_row: np.ndarray) -> np.ndarray:
    """The row as floats, checked: 1-D, finite, non-negative, not all zero."""
    l_row = np.asarray(l_row, dtype=np.float64)
    if l_row.ndim != 1 or l_row.size < 1:
        raise ValueError("need a 1-D curvature row")
    if np.any(l_row < 0.0) or not np.all(np.isfinite(l_row)):
        raise ValueError("curvatures must be finite and non-negative")
    if (l_row**2).sum() == 0.0:
        raise ValueError("curvature row must have at least one positive entry")
    return l_row


def compute_alpha(l_row: np.ndarray) -> np.ndarray:
    """Gap factors: normalized gaps between each category's squared curvature
    and the mean.

    Positive entries mark categories cheaper than average (to be up-sampled),
    negative ones costlier than average. The vector sums to zero and has unit
    norm, except in the degenerate all-equal case where it is identically zero.
    """
    l_row = _curvature_row(l_row)
    sq = l_row**2
    gaps = 1.0 - l_row.size * sq / sq.sum()
    denom = np.sqrt((gaps**2).sum())
    if denom < _DEGENERATE_EPS:
        return np.zeros(l_row.size)
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


def _screen_faces(
    p: np.ndarray, floors: np.ndarray, sq: np.ndarray, pinned: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Which faces (rows of ``pinned``) and which vertices the exact loop of
    _minimize_rho must visit to find its minimizer, as two boolean masks.

    Every face's candidates (its one point if flat, else its two levels t)
    and every vertex are evaluated at once, in masked (F, C) arithmetic that
    follows the loop but sums in another order. Each quantity carries a bound
    on how far the loop's own value of it can lie: _SCREEN_MARGIN of its
    scale, carried through the quadratic, so an ill-conditioned level t gets
    a wide bound. A candidate is kept when its penalty less its bound is at
    most ``best``, the smallest penalty plus bound of a candidate the loop
    surely evaluates; a dropped candidate then cannot attain the minimum. A
    face is kept outright when a branch test of the loop (a flat gap, the
    sign of the discriminant, t >= 0, feasibility) lies within its bound of
    a flip, or cannot be evaluated, since the loop may branch the other way.
    """
    eps = _SCREEN_MARGIN
    top = sq.max()
    weight = (~pinned).astype(np.float64)
    n = weight.sum(axis=1)
    shift = (1.0 - (floors.sum() - weight @ floors) - weight @ p) / n
    base = np.where(pinned, floors, p + shift[:, None])
    gap = weight * ((weight @ sq / n)[:, None] - sq)
    dev = base - p
    with np.errstate(all="ignore"):
        gap_sq = np.einsum("ij,ij->i", gap, gap)
        mismatch0 = 1.0 + np.einsum("ij,ij->i", dev, dev)
        curvature0 = base @ sq
        # bounds on the distance to the loop's values: base entries lie
        # within 8 eps, gaps within 4 eps * top
        err_gap = 4.0 * eps * top
        err_gap_sq = err_gap * (2.0 * np.sqrt(n * gap_sq) + n * err_gap) + eps * gap_sq
        err_m0 = eps * (mismatch0 + 8.0 * n)
        err_c0 = 8.0 * eps * p.size * top
        flat = (n == 1.0) | (gap_sq < 1e-24)
        near_flip = (n > 1.0) & ~(np.abs(gap_sq - 1e-24) > err_gap_sq)

        disc = curvature0**2 - 3.0 * gap_sq * mismatch0
        err_disc = (
            (2.0 * np.abs(curvature0) + err_c0) * err_c0
            + 3.0 * ((mismatch0 + err_m0) * err_gap_sq + gap_sq * err_m0)
            + eps * (curvature0**2 + 3.0 * gap_sq * mismatch0)
        )
        real = ~flat & (disc >= 0.0)
        near_flip |= ~flat & ~(np.abs(disc) > err_disc)
        root = np.sqrt(np.maximum(disc, 0.0))
        err_num = (
            err_c0
            + err_disc / np.maximum(root, np.sqrt(err_disc))
            + eps * (np.abs(curvature0) + root)
        )
        num = curvature0 + _LEVEL_SIGNS * root  # (2, F): the two levels of each face
        near_flip |= real & ~(np.abs(num) > err_num).all(axis=0)
        t = num / (3.0 * gap_sq)
        err_t = (err_num / 3.0 + np.abs(t) * err_gap_sq) / np.maximum(
            gap_sq - err_gap_sq, 0.0
        ) + eps * np.abs(t)
        valid = real & (t >= 0.0)
        valid[0] |= flat  # a flat face has the one candidate t = 0
        t = np.where(valid & ~flat, t, 0.0)
        err_q = 8.0 * eps + (8.0 * eps * np.abs(t) + 2.0 * np.where(valid & ~flat, err_t, 0.0)) * top

        step = t[..., None] * gap  # (2, F, C)
        # the loop's test q >= floors - 1e-12, on the free coordinates
        least = (np.where(pinned, np.inf, base - (floors - 1e-12)) + step).min(axis=-1)
        near_flip |= (valid & ~(np.abs(least) > err_q)).any(axis=0)
        q = base + step
        dev = q - p
        mismatch = 1.0 + np.einsum("kfc,kfc->kf", dev, dev)
        curvature = q @ sq
        value = mismatch * curvature
        # the gradient of rho, and its change over err_q, bound the spread
        err_value = (err_q + 3.0 * eps) * mismatch * (n + 5.0) * (np.abs(curvature) + 4.0 * top)

        # vertex j: every category at its floor but j, which takes the rest
        mass = 1.0 - floors.sum()
        below = floors - p
        vertex_value = (1.0 + below @ below + 2.0 * mass * below + mass * mass) * (
            floors @ sq + mass * sq
        )
        err_vertex = 16.0 * eps * vertex_value

        candidate = valid & (least >= 0.0)
        best = min(
            np.where(candidate & ~near_flip, value + err_value, np.inf).min(),
            (vertex_value + err_vertex).min(),
        )
        if not np.isfinite(best):
            return np.ones(len(pinned), dtype=bool), np.ones(p.size, dtype=bool)
        faces = near_flip | (candidate & ~(value - err_value > best)).any(axis=0)
        return faces, ~(vertex_value - err_vertex > best)


def _minimize_rho(p: np.ndarray, floors: np.ndarray, sq: np.ndarray) -> np.ndarray:
    """Exact minimizer of rho over {sum q = 1, q >= floors}.

    The minimum sits either at a stationary point of some face (a subset of
    coordinates pinned to their floors) or at a vertex. On each face the
    stationarity conditions confine q to a line: the mass-shifted pooled mix
    plus t times the curvature-gap direction of the unpinned set; the
    self-consistent levels t solve a quadratic. Only the O(C^2) faces a KKT
    point can lie on are searched (see _pinned_sets), so a solve costs O(C^3)
    and returns the q that searching all 2^C - 1 faces would, bit for bit.
    The one exception is an optimum on several faces at once, as when an
    exactly tied curvature meets a clamped floor: those faces agree up to
    rounding, and which of them is kept may differ. _screen_faces first drops
    the faces and vertices whose candidates cannot attain the minimum; the
    loop visits the rest in the same order, so the same q wins, ties included.
    """
    c = p.size
    best_q, best_v = floors.copy(), np.inf

    def consider(q: np.ndarray) -> None:
        nonlocal best_q, best_v
        if np.any(q < floors - 1e-12):
            return
        value = (1.0 + ((q - p) ** 2).sum()) * (q @ sq)
        if value < best_v:
            best_q, best_v = q, value

    pinned_sets = _pinned_sets(p, floors, sq)
    faces, vertices = _screen_faces(p, floors, sq, pinned_sets)
    for pinned in pinned_sets[faces]:
        free = np.flatnonzero(~pinned)
        mass = 1.0 - floors[pinned].sum()
        shift = (mass - p[free].sum()) / free.size
        base = p[free] + shift
        gap = sq[free].mean() - sq[free]
        gap_sq = float(gap @ gap)
        mismatch0 = 1.0 + ((floors[pinned] - p[pinned]) ** 2).sum() + free.size * shift**2
        curvature0 = float(floors[pinned] @ sq[pinned]) + float(base @ sq[free])
        if gap_sq < 1e-24 or free.size == 1:
            q = np.empty(c)
            q[pinned] = floors[pinned]
            q[free] = base
            consider(q)
            continue
        # stationary levels: 2 t * curvature(t) = mismatch(t), a quadratic in t
        disc = curvature0**2 - 3.0 * gap_sq * mismatch0
        if disc < 0.0:
            continue
        root = np.sqrt(disc)
        for t in ((curvature0 - root) / (3.0 * gap_sq), (curvature0 + root) / (3.0 * gap_sq)):
            if t >= 0.0:
                q = np.empty(c)
                q[pinned] = floors[pinned]
                q[free] = base + t * gap
                consider(q)

    slack = 1.0 - floors.sum()
    for j in np.flatnonzero(vertices):
        q = floors.copy()
        q[j] += slack
        consider(q)
    return best_q


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
    l_row = _curvature_row(l_row)
    floors, clamped = _effective_floors(p_arr, pk_arr, varpi)
    if clamped:
        logger.warning(
            "floor exceeds pooled proportion for categories %s; clamping",
            np.flatnonzero(varpi * pk_arr > p_arr).tolist(),
        )
    if l_row.size != p_arr.size:
        raise ValueError("the curvature row and p must have equal length")
    q = _minimize_rho(p_arr, floors, l_row**2)

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
    mismatch = 1.0 + np.sum((p.probs - q) ** 2, axis=-1)
    curvature = np.sum(q * l_row**2, axis=-1)
    value = mismatch * curvature
    return float(value) if q.ndim == 1 else value

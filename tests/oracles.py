"""Slow reference solvers that the weight solver is checked against.

``enumerate_rho_min`` visits every one of the 2^C - 1 floor patterns; the
polynomial solver in ``isfl.isweights`` must return its q bit for bit.
``brute_force_rho_min`` grid-searches the feasible set and checks both at
small category counts.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from isfl.data import CapacityError, CategoryDistribution
from isfl.isweights import _effective_floors


def enumerate_rho_min(p: np.ndarray, floors: np.ndarray, sq: np.ndarray) -> np.ndarray:
    """Exact minimizer of rho over {sum q = 1, q >= floors}.

    The minimum sits either at a stationary point of some face (a subset of
    coordinates pinned to their floors) or at a vertex. On each face the
    stationarity conditions confine q to a line: the mass-shifted pooled mix
    plus t times the curvature-gap direction of the unpinned set; the
    self-consistent levels t solve a quadratic. All faces are enumerated, so
    the cost grows as 2^C.
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

    for pattern in range(2**c - 1):
        pinned = np.array([(pattern >> j) & 1 for j in range(c)], dtype=bool)
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
    for j in range(c):
        q = floors.copy()
        q[j] += slack
        consider(q)
    return best_q


@lru_cache(maxsize=8)
def _compositions(total: int, parts: int) -> np.ndarray:
    """All non-negative integer vectors of the given length summing to total.

    Built column by column with ragged-range expansion; the cached table is
    treated as read-only by callers.
    """
    prefix = np.arange(total + 1, dtype=np.int32)[:, None]
    for _ in range(parts - 2):
        remaining = total - prefix.sum(axis=1)
        counts = remaining + 1
        starts = np.cumsum(counts) - counts
        row_of = np.repeat(np.arange(prefix.shape[0]), counts)
        new_col = np.arange(counts.sum(), dtype=np.int32) - starts[row_of]
        prefix = np.hstack([prefix[row_of], new_col[:, None]])
    if parts == 1:
        return np.array([[total]], dtype=np.int32)
    last = (total - prefix.sum(axis=1)).astype(np.int32)
    return np.hstack([prefix, last[:, None]])


def brute_force_rho_min(
    p: CategoryDistribution,
    p_local: CategoryDistribution,
    l_row: np.ndarray,
    varpi: float,
    grid_step: float = 0.005,
) -> tuple[np.ndarray, float]:
    """Exhaustive grid minimizer of rho over the feasible set, as an oracle.

    The grid lives on the residual simplex above the floors, so floor-active
    boundaries are represented exactly. Intended for small category counts
    only; the grid grows combinatorially.
    """
    l_row = np.asarray(l_row, dtype=np.float64)
    c = len(p)
    if c > 5:
        raise CapacityError("grid oracle supports at most 5 categories")
    if not 0.0 < grid_step <= 0.01:
        raise ValueError("grid_step must lie in (0, 0.01]")
    floors, _ = _effective_floors(p.probs, p_local.probs, varpi)
    residual = 1.0 - floors.sum()
    steps = int(round(1.0 / grid_step))
    grid = _compositions(steps, c).astype(np.float64) / steps
    q = floors[None, :] + residual * grid
    mismatch = 1.0 + np.sum((q - p.probs[None, :]) ** 2, axis=1)
    curvature = q @ (l_row**2)
    values = mismatch * curvature
    best = int(values.argmin())
    return q[best], float(values[best])

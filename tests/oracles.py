"""Slow reference implementations that the fast paths are checked against.

``enumerate_rho_min`` visits every one of the 2^C - 1 floor patterns; the
polynomial solver in ``isfl.isweights`` must return its q bit for bit.
``brute_force_rho_min`` grid-searches the feasible set and checks both at
small category counts.

``weighted_sample_batch`` and ``local_train`` train one client alone, one
validated batch and one gradient at a time; ``isfl.trainer.local_train``
must leave every client exactly where they do.

``estimate_lipschitz`` forms one client's and the aggregate's per-sample
gradient matrices in ``BLOCK_ROWS``-row blocks and takes the norms of their
differences; the difference form in ``isfl.lipschitz`` must match its rows to
rounding.
``estimate_sgd_stats`` runs one ``mean_grads`` call per draw; the stacked
estimator must return its statistics bit for bit. ``kkt_partials`` is the
gradient of rho that the solver's optimality tests check.

``save_dataset`` writes the binary container that ``isfl.data.load_dataset``
reads.
"""

from __future__ import annotations

import math
import struct
from functools import lru_cache

import numpy as np

from isfl.data import (
    DATASET_MAGIC,
    CapacityError,
    CategoryDistribution,
    ClientShard,
    Dataset,
)
from isfl.isweights import SamplingPlan, _effective_floors
from isfl.lipschitz import GradientStats, ZeroDeviationError, lipschitz_row
from isfl.model import ModelSpec, _backprop, _views, check_batch, mean_grads
from isfl.trainer import TrainerConfig

# probe rows per per-sample gradient block in estimate_lipschitz
BLOCK_ROWS = 128


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


def weighted_sample_batch(
    shard: ClientShard, plan: SamplingPlan, batch_size: int, rng: np.random.Generator
) -> Dataset:
    """Draw batch_size samples: category by plan probability, then uniform
    within that category's local pool (with replacement)."""
    q = plan.q.probs
    if q.size != shard.dataset.n_classes:
        raise ValueError("plan and shard category counts differ")
    support = np.flatnonzero(q > 0.0)
    if support.size == 0:
        raise ValueError("sampling plan has empty support")
    for c in support:
        if shard.category_pools[c].size == 0:
            raise ValueError(f"plan assigns mass to category {c} the shard lacks")
    cats = rng.choice(q.size, size=batch_size, p=q)
    picks = np.empty(batch_size, dtype=np.int64)
    for c in np.unique(cats):
        mask = cats == c
        pool = shard.category_pools[c]
        picks[mask] = pool[rng.integers(0, pool.size, size=int(mask.sum()))]
    return shard.dataset.subset(picks)


def _sample_by_weight(
    shard: ClientShard, probs: np.ndarray, batch_size: int, rng: np.random.Generator
) -> Dataset:
    picks = rng.choice(shard.indices, size=batch_size, p=probs)
    return shard.dataset.subset(picks)


def local_train(
    spec: ModelSpec,
    params: np.ndarray,
    shard: ClientShard,
    plan: SamplingPlan | np.ndarray,
    cfg: TrainerConfig,
    seed: int,
) -> np.ndarray:
    """Run the configured local epochs of weighted minibatch SGD.

    Each epoch touches exactly floor(sampling_ratio * len(shard)) samples, in
    batches of cfg.batch_size (last batch possibly smaller). ``plan`` is either
    a category-level SamplingPlan or a per-sample probability vector.
    Deterministic for a given seed.
    """
    rng = np.random.default_rng(seed)
    budget = math.floor(cfg.sampling_ratio * len(shard))
    per_sample = isinstance(plan, np.ndarray)
    if per_sample and plan.shape != (len(shard),):
        raise ValueError("per-sample probabilities must match the shard size")
    current = params
    for _ in range(cfg.local_epochs):
        left = budget
        while left > 0:
            take = min(cfg.batch_size, left)
            if per_sample:
                batch = _sample_by_weight(shard, plan, take, rng)
            else:
                batch = weighted_sample_batch(shard, plan, take, rng)
            check_batch(spec, batch)
            grad = mean_grads(spec, current, batch.features, batch.labels)
            if cfg.eta > 0.0:
                current = sgd_step(current, grad, cfg.eta)
            left -= take
    return current


def sgd_step(params: np.ndarray, grad: np.ndarray, eta: float) -> np.ndarray:
    if eta <= 0.0:
        raise ValueError("eta must be positive")
    return params - eta * grad


def per_sample_grad_blocks(spec: ModelSpec, params: np.ndarray, batch: Dataset, rows: int):
    """Row blocks of the N x P per-sample gradient matrix, in order.

    One backward pass over the whole batch; each yielded (m, P) block, m <=
    rows, is a view of one reused buffer and is overwritten by the next.
    Row n is the gradient of sample n's own loss.
    """
    check_batch(spec, batch)
    acts, deltas = _backprop(spec, _views(spec, params), batch.features, batch.labels, mean=False)
    n = len(batch)
    buffer = np.empty((min(rows, n), params.size))
    views = _views(spec, buffer)
    for start in range(0, n, rows):
        stop = min(start + rows, n)
        for i, delta in enumerate(deltas):
            np.einsum(
                "ni,nj->nij", acts[i][start:stop], delta[start:stop],
                out=views[2 * i][: stop - start],
            )
            views[2 * i + 1][: stop - start] = delta[start:stop]
        yield buffer[: stop - start]


def estimate_lipschitz(
    spec: ModelSpec,
    local_params: np.ndarray,
    global_params: np.ndarray,
    probe: Dataset,
) -> np.ndarray:
    """Curvature row for one client from a probe set.

    Costs exactly one backward pass over the probe per parameter vector. The
    per-sample gradients are then formed BLOCK_ROWS rows at a time, so memory
    stays at two blocks instead of two N x P matrices. Raises
    ZeroDeviationError when the two parameter vectors coincide; the caller
    should keep its previous row in that case.
    """
    deviation = float(np.linalg.norm(local_params - global_params))
    if deviation == 0.0:
        raise ZeroDeviationError("local and global parameters coincide")
    if not np.isfinite(deviation):
        raise ValueError("parameter deviation is not finite; the run diverged")
    diff_norms = np.empty(len(probe))
    start = 0
    for block_local, block_global in zip(
        per_sample_grad_blocks(spec, local_params, probe, BLOCK_ROWS),
        per_sample_grad_blocks(spec, global_params, probe, BLOCK_ROWS),
    ):
        if not (np.all(np.isfinite(block_local)) and np.all(np.isfinite(block_global))):
            raise ValueError("probe gradients are not finite; the run diverged")
        stop = start + len(block_local)
        diff_norms[start:stop] = np.linalg.norm(block_local - block_global, axis=1)
        start = stop
    return lipschitz_row(diff_norms, probe.labels, probe.n_classes, deviation)


def estimate_sgd_stats(
    spec: ModelSpec,
    params: np.ndarray,
    probe: Dataset,
    batch_size: int,
    n_draws: int,
    seed: int = 0,
) -> GradientStats:
    """Empirical minibatch-gradient spread: sigma2 is the mean squared distance
    of draws from their mean, g2 the largest squared draw norm.

    Batches at least as large as the probe collapse to the full set, so the
    variance estimate is exactly zero there.
    """
    if n_draws < 2:
        raise ValueError("need at least two draws")
    if batch_size < 1:
        raise ValueError("batch_size must be positive")
    rng = np.random.default_rng(seed)
    n = len(probe)
    if batch_size >= n:
        # every draw is the whole probe, so the spread is zero by definition
        full = mean_grads(spec, params, probe.features, probe.labels)
        return GradientStats(sigma2=0.0, g2=float(full @ full))
    grads = []
    for _ in range(n_draws):
        idx = np.sort(rng.choice(n, size=batch_size, replace=False))
        batch = probe.subset(idx)
        grads.append(mean_grads(spec, params, batch.features, batch.labels))
    stack = np.stack(grads)
    mean = stack.mean(axis=0)
    sigma2 = float(np.mean(np.sum((stack - mean) ** 2, axis=1)))
    g2 = float(np.max(np.sum(stack**2, axis=1)))
    return GradientStats(sigma2=sigma2, g2=g2)


def kkt_partials(
    q: CategoryDistribution, p: CategoryDistribution, l_row: np.ndarray
) -> np.ndarray:
    """Gradient of rho at q: 2(q_j - p_j) * B + L_j^2 * A with A the mismatch
    factor and B the curvature factor. At an optimum the non-floored entries
    are all equal (to the multiplier of the sum-to-one constraint)."""
    l_row = np.asarray(l_row, dtype=np.float64)
    a = 1.0 + np.sum((p.probs - q.probs) ** 2)
    b = np.sum(q.probs * l_row**2)
    return 2.0 * (q.probs - p.probs) * b + l_row**2 * a


def save_dataset(ds: Dataset, path) -> None:
    """Write the binary container: magic, u32 N/d/C, f32 features, u16 labels."""
    if ds.labels.max(initial=0) > 0xFFFF:
        raise ValueError("labels do not fit in u16")
    with open(path, "wb") as f:
        f.write(DATASET_MAGIC)
        f.write(struct.pack("<III", len(ds), ds.dim, ds.n_classes))
        f.write(ds.features.astype("<f4").tobytes())
        f.write(ds.labels.astype("<u2").tobytes())

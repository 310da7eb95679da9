"""Slow reference implementations that the fast paths are checked against.

``enumerate_rho_min`` scores every one of the 2^C - 1 floor patterns, each in
masked row arithmetic of its own; the polynomial solver in ``isfl.isweights``
scores only the patterns a KKT point can have, in the same row arithmetic,
and must return its q bit for bit. ``brute_force_rho_min`` grid-searches the
feasible set and checks both at small category counts. ``_pinned_sets`` is
the reference list of the patterns a KKT point can have, built with
``np.unique``.

``weighted_sample_batch`` and ``local_train`` train one client alone, one
validated batch and one gradient at a time; ``isfl.trainer.local_train``
must leave every client exactly where they do. A batch is one
``rng.choice`` of its categories and, per drawn category in ascending order,
one ``rng.integers(0, 2**32, dtype=np.uint64)`` of 32-bit halves, which PCG64
hands out low half first; each half picks ``(half * pool) >> 32`` of its
pool. On a pool of two or more samples that is numpy's own
``rng.integers(0, pool)``, unless numpy would reject the half (Lemire,
arXiv 1805.10941); a one-sample pool reads a half where numpy reads none.

``estimate_lipschitz`` forms one client's and the aggregate's per-sample
gradient matrices in ``BLOCK_ROWS``-row blocks and takes the norms of their
differences; the difference form in ``isfl.lipschitz`` must match its rows to
rounding. ``lipschitz_row`` takes each category's maximum in a loop over the
categories, one mask each; the scatter-max in ``isfl.lipschitz`` must give
its row bit for bit.
``every_batch_mean_grads`` enumerates every B-subset of a small client and
takes each one's mean gradient; the moments over these equally likely draws
are what the exact noise statistics of ``isfl.lipschitz.estimate_sgd_stats``
must equal to rounding. ``kkt_partials`` is the gradient of rho that the
solver's optimality tests check.

``sort_and_partition`` is the label-skew split in its loop form: one
cursor per category, moved one shard and one category at a time. The array
form in ``isfl.data`` must give the same shard indices, and raise the same
error, from the same RNG calls.

``save_dataset`` writes the binary container that ``isfl.data.load_dataset``
reads. ``even_allocation`` hands out picks one sweep over the open categories
at a time; ``isfl.data._even_allocation``'s closed form must give its counts.

``_forward``, ``_softmax``, ``_cross_entropy``, ``_act_grad``,
``_backward_deltas``, ``_backprop``, ``mean_grads`` and ``evaluate`` are the
model kernels in their plain form: every layer output and every softmax
stage is a new array, the row max is ``max(axis=-1)`` and the accuracy is a
row ``argmax``. They reduce in the kernels' order: the softmax denominator
and the log-sum-exp are ``@ ones(C)``, the bias gradient ``ones(N) @``, and
the mean gradient's 1/N rides on the softmax's one scaling, a multiply by
1 / (N * denominator), with 1/N subtracted at the label. The in-place
kernels of ``isfl.model`` must equal them bit for bit. The oracles above
that take gradients run on them. ``kernel_mean_grads`` is no oracle: it is
``mean_grads``'s signature over the in-place kernel, for the tests.
"""

from __future__ import annotations

import itertools
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
    PartitionConfig,
    _shuffled_pools,
)
from isfl.isweights import SamplingPlan, _effective_floors
from isfl.model import ModelSpec, _grads_into, _views, check_batch
from isfl.trainer import TrainerConfig

# probe rows per per-sample gradient block in estimate_lipschitz
BLOCK_ROWS = 128


def _forward(spec: ModelSpec, views: list[np.ndarray], x: np.ndarray):
    """Returns (logits, activations, pre_activations); activations[0] is x.

    ``views`` are the layer views of one vector with x of shape (N, d), or of
    a (K, P) stack with x of shape (K, N, d).
    """
    acts = [x]
    pre = []
    n_layers = len(spec.layer_dims) - 1
    h = x
    for i in range(n_layers):
        z = h @ views[2 * i] + views[2 * i + 1][..., None, :]
        if i == n_layers - 1:
            return z, acts, pre
        pre.append(z)
        h = np.maximum(z, 0.0) if spec.activation == "relu" else np.tanh(z)
        acts.append(h)
    raise AssertionError("unreachable")


def _softmax(logits: np.ndarray, n: int = 1) -> np.ndarray:
    """Row softmax divided by ``n``, as one multiply by 1 / (n * row sum)."""
    ex = np.exp(logits - logits.max(axis=-1, keepdims=True))
    return ex * (1.0 / (n * (ex @ np.ones(ex.shape[-1]))))[..., None]


def _cross_entropy(logits: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """Per-sample loss of a (N, C) logit matrix."""
    shifted = logits - logits.max(axis=1, keepdims=True)
    log_probs = shifted - np.log(np.exp(shifted) @ np.ones(shifted.shape[1]))[:, None]
    return -log_probs[np.arange(labels.size), labels]


def _act_grad(spec: ModelSpec, z: np.ndarray, a: np.ndarray) -> np.ndarray:
    if spec.activation == "relu":
        return (z > 0.0).astype(np.float64)
    return 1.0 - a * a


def _backward_deltas(spec, views, acts, pre, dlogits):
    """Per-layer deltas from the logits backwards; dlogits sets the scaling."""
    n_layers = len(spec.layer_dims) - 1
    deltas = [None] * n_layers
    deltas[-1] = dlogits
    for i in range(n_layers - 2, -1, -1):
        upstream = deltas[i + 1] @ np.swapaxes(views[2 * (i + 1)], -1, -2)
        deltas[i] = upstream * _act_grad(spec, pre[i], acts[i + 1])
    return deltas


def _backprop(spec: ModelSpec, views, x: np.ndarray, labels: np.ndarray, mean: bool):
    """Shared prologue of the gradient functions: run the forward pass and
    backpropagate the softmax cross-entropy.

    Returns (activations, deltas). The logit gradient is softmax minus one-hot
    per sample; ``mean`` scales both by 1/N before backpropagation, which
    gives the deltas of the mean loss instead of each sample's own loss.
    """
    logits, acts, pre = _forward(spec, views, x)
    n = labels.shape[-1] if mean else 1
    dlogits = _softmax(logits, n)
    dlogits[(*np.indices(labels.shape, sparse=True), labels)] -= 1.0 / n
    return acts, _backward_deltas(spec, views, acts, pre, dlogits)


def mean_grads(
    spec: ModelSpec, values: np.ndarray, x: np.ndarray, labels: np.ndarray
) -> np.ndarray:
    """Flat gradients of the mean loss over each batch's sample axis.

    ``values`` is one (P,) vector or a (K, P) stack whose row k sees batch
    ``x[k]``. A (P,) vector also takes a (D, N, d) stack of D batches and
    returns a (D, P) array, one gradient per batch.
    """
    acts, deltas = _backprop(spec, _views(spec, values), x, labels, mean=True)
    grads = np.empty(x.shape[:-2] + values.shape[-1:])
    views = _views(spec, grads)
    for i, (a, delta) in enumerate(zip(acts, deltas)):
        # weight and bias gradients, summed over the sample axis
        views[2 * i][...] = np.swapaxes(a, -1, -2) @ delta
        views[2 * i + 1][...] = np.ones(delta.shape[-2]) @ delta
    return grads


def kernel_mean_grads(
    spec: ModelSpec, values: np.ndarray, x: np.ndarray, labels: np.ndarray
) -> np.ndarray:
    """``mean_grads`` through ``isfl.model._grads_into``, the in-place kernel
    that every ``sgd_stepper`` step runs: not an oracle, but the fast path
    with the same arguments, for the tests that take mean gradients and for
    the check of that kernel against ``mean_grads``."""
    grads = np.empty(x.shape[:-2] + values.shape[-1:])
    _grads_into(spec, _views(spec, values), x, labels, _views(spec, grads))
    return grads


def evaluate(spec: ModelSpec, params: np.ndarray, ds: Dataset) -> tuple[float, float]:
    """Mean loss and top-1 accuracy on ``ds``."""
    check_batch(spec, ds)
    logits, _, _ = _forward(spec, _views(spec, params), ds.features)
    losses = _cross_entropy(logits, ds.labels)
    acc = float(np.mean(logits.argmax(axis=1) == ds.labels))
    return float(losses.mean()), acc


def _face_points(
    p: np.ndarray, floors: np.ndarray, sq: np.ndarray, pinned: np.ndarray
) -> np.ndarray:
    """The candidates of every face (a row of ``pinned``), two per face in
    (face, level) order: the face's stationary points, NaN where a level is
    no candidate. Each face is one row of masked arithmetic whose sums run
    along the row, so its candidates do not depend on the other rows."""
    c = p.size
    free = ~pinned
    n = free.sum(axis=1)
    shift = (1.0 - np.where(pinned, floors, p).sum(axis=1)) / n
    base = np.where(free, p + shift[:, None], floors)
    gap = np.where(free, (np.where(free, sq, 0.0).sum(axis=1) / n)[:, None] - sq, 0.0)
    gap_sq = (gap * gap).sum(axis=1)
    mismatch0 = 1.0 + ((base - p) ** 2).sum(axis=1)
    curvature0 = (base * sq).sum(axis=1)
    with np.errstate(invalid="ignore", divide="ignore"):
        # stationary levels: 2 t * curvature(t) = mismatch(t), a quadratic in t
        disc = curvature0**2 - 3.0 * gap_sq * mismatch0
        root = np.sqrt(disc)
        t = np.stack(((curvature0 - root) / (3.0 * gap_sq),
                      (curvature0 + root) / (3.0 * gap_sq)), axis=1)
        flat = (gap_sq < 1e-24) | (n == 1)
        real = ~flat[:, None] & (disc >= 0.0)[:, None] & (t >= 0.0)
        points = np.where(real[..., None], base[:, None] + t[..., None] * gap[:, None], np.nan)
    points[flat, 0] = base[flat]  # a flat face has the one point t = 0
    return points.reshape(-1, c)


def enumerate_rho_min(p: np.ndarray, floors: np.ndarray, sq: np.ndarray) -> np.ndarray:
    """Exact minimizer of rho over {sum q = 1, q >= floors}.

    The minimum sits either at a stationary point of some face (a subset of
    coordinates pinned to their floors) or at a vertex. On each face the
    stationarity conditions confine q to a line: the mass-shifted pooled mix
    plus t times the curvature-gap direction of the unpinned set; the
    self-consistent levels t solve a quadratic. All 2^C - 1 faces are
    scored, face by face in the order of their floor-pattern integers (bit j
    for category j), lower level first, then every vertex; the first
    candidate of smallest penalty wins. The cost grows as 2^C.
    """
    c = p.size
    best_q, best_v = floors.copy(), np.inf
    slack = 1.0 - floors.sum()
    patterns = np.arange(2**c - 1)
    faces = (
        _face_points(p, floors, sq, (block[:, None] >> np.arange(c)) & 1 == 1)
        for block in np.split(patterns, range(4096, patterns.size, 4096))
    )
    for q in itertools.chain(faces, [floors + slack * np.eye(c)]):
        # the feasible candidates, in order
        q = q[~(np.isnan(q) | (q < floors - 1e-12)).any(axis=1)]
        with np.errstate(invalid="ignore", over="ignore"):
            value = (1.0 + ((p - q) ** 2).sum(axis=1)) * (q * sq).sum(axis=1)
        value[np.isnan(value)] = np.inf
        if value.size and value.min() < best_v:
            k = int(np.argmin(value))
            best_q, best_v = q[k], value[k]
    return best_q


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
    cross = np.unique(cross[np.isfinite(cross) & (cross > 0.0)])
    edges = np.concatenate(([0.0], cross))
    levels = np.sort(np.r_[cross, (edges[:-1] + edges[1:]) / 2, 2.0 * edges[-1] + 1.0])

    order = np.argsort(-(a[None, :] + levels[:, None] * sq[None, :]), axis=1, kind="stable")
    rank = np.argsort(order, axis=1)
    # prefix k of a level differs from the previous level's exactly when one
    # of its first k categories ranked k or lower there
    reach = np.maximum.accumulate(np.take_along_axis(rank[:-1], order[1:], axis=1), axis=1)
    new = np.vstack([np.ones((1, c - 1), dtype=bool), reach[:, :-1] >= np.arange(1, c)])

    rows, ks = np.nonzero(new)
    masks = np.vstack([np.zeros((1, c), dtype=bool), rank[rows] <= ks[:, None]])
    masks = np.unique(masks, axis=0)
    return masks[np.lexsort(masks.T)]


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
    within that category's local pool (with replacement), each position
    ``(half * pool) >> 32`` of one 32-bit half of the generator's stream."""
    q = plan.q.probs
    if q.size != shard.dataset.n_classes:
        raise ValueError("plan and shard category counts differ")
    support = np.flatnonzero(q > 0.0)
    if support.size == 0:
        raise ValueError("sampling plan has empty support")
    labels = shard.dataset.labels[shard.indices]
    for c in support:
        if not np.any(labels == c):
            raise ValueError(f"plan assigns mass to category {c} the shard lacks")
    cats = rng.choice(q.size, size=batch_size, p=q)
    picks = np.empty(batch_size, dtype=np.int64)
    for c in np.unique(cats):
        mask = cats == c
        pool = shard.indices[labels == c]
        halves = rng.integers(0, 2**32, size=int(mask.sum()), dtype=np.uint64)
        picks[mask] = pool[(halves * pool.size) >> 32]
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


def lipschitz_row(
    diff_norms: np.ndarray,
    labels: np.ndarray,
    n_classes: int,
    deviation_norm: float,
) -> np.ndarray:
    """Per-category max of gradient-difference norms over the deviation norm,
    one category at a time; categories with no samples get the mean of the
    present entries."""
    row = np.full(n_classes, np.nan)
    for c in range(n_classes):
        mask = labels == c
        if mask.any():
            row[c] = diff_norms[mask].max() / deviation_norm
    missing = np.isnan(row)
    if missing.any():
        row[missing] = row[~missing].mean()
    return row


def estimate_lipschitz(
    spec: ModelSpec,
    local_params: np.ndarray,
    global_params: np.ndarray,
    probe: Dataset,
) -> np.ndarray:
    """Curvature row for one client from a probe set.

    Costs exactly one backward pass over the probe per parameter vector. The
    per-sample gradients are then formed BLOCK_ROWS rows at a time, so memory
    stays at two blocks instead of two N x P matrices. Raises ValueError
    when the two parameter vectors coincide: the ratio is 0/0.
    """
    deviation = float(np.linalg.norm(local_params - global_params))
    if deviation == 0.0:
        raise ValueError("local and global parameters coincide")
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


def every_batch_mean_grads(
    spec: ModelSpec, params: np.ndarray, data: Dataset, batch_size: int
) -> np.ndarray:
    """Mean gradient of every ``batch_size``-subset of ``data``, one row per
    subset in ``itertools.combinations`` order; the whole set when
    ``batch_size`` is at least its size. The subsets go through ``mean_grads``
    in blocks of about 2**14 rows."""
    idx = np.array(list(itertools.combinations(range(len(data)), min(batch_size, len(data)))))
    step = max(1, 2**14 // idx.shape[1])
    return np.concatenate([
        mean_grads(spec, params, data.features[block], data.labels[block])
        for block in np.split(idx, range(step, len(idx), step))
    ])


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


def even_allocation(capacity: np.ndarray, total: int) -> np.ndarray:
    """One pick per open category and sweep, in index order, until ``total``
    picks are made; CapacityError when every category fills first."""
    counts = np.zeros(capacity.size, dtype=np.int64)
    remaining = total
    while remaining > 0:
        open_cats = np.flatnonzero(counts < capacity)
        if open_cats.size == 0:
            raise CapacityError("not enough samples to fill the request")
        take = open_cats[:remaining]
        counts[take] += 1
        remaining -= take.size
    return counts


def sort_and_partition(ds: Dataset, cfg: PartitionConfig) -> list[ClientShard]:
    """Split ``ds`` into label-skewed client shards.

    Each shard holds ``ceil(nr * shard_size)`` samples from one contiguous
    label-sorted block and the remaining ``shard_size - ceil(nr * shard_size)``
    samples spread evenly over all categories. Shards are dealt to clients at
    random without replacement, so client data is disjoint.
    """
    cfg.validate_for(len(ds))
    n_shards = cfg.n_shards
    skew = math.ceil(cfg.nr * cfg.shard_size)
    uni = cfg.shard_size - skew
    rng = np.random.default_rng(cfg.seed)

    pools = _shuffled_pools(ds, rng)
    cursors = [0] * ds.n_classes

    # Uniform portion: per shard, spread `uni` picks over all categories
    # (base count per class, leftover classes chosen at random).
    uniform_parts: list[list[np.ndarray]] = []
    base, extra = divmod(uni, ds.n_classes)
    for _ in range(n_shards):
        want = np.full(ds.n_classes, base, dtype=np.int64)
        if extra:
            want[rng.choice(ds.n_classes, size=extra, replace=False)] += 1
        part = []
        for c in range(ds.n_classes):
            take = int(want[c])
            if cursors[c] + take > pools[c].size:
                raise CapacityError(
                    f"category {c} exhausted while drawing uniform shard portions"
                )
            part.append(pools[c][cursors[c] : cursors[c] + take])
            cursors[c] += take
        uniform_parts.append(part)

    # Skewed portion: leftovers, grouped by label, cut into contiguous blocks.
    # Blocks start at evenly spaced offsets so a balanced source stays balanced
    # even when the partition does not consume every sample.
    remaining = np.concatenate(
        [pools[c][cursors[c] :] for c in range(ds.n_classes)]
    )
    if skew > 0:
        if remaining.size < n_shards * skew:
            raise CapacityError("not enough samples left for the skewed shard blocks")
        seg = remaining.size // n_shards
        blocks = [remaining[b * seg : b * seg + skew] for b in range(n_shards)]
    else:
        blocks = [np.empty(0, dtype=np.int64) for _ in range(n_shards)]

    shard_indices = [
        np.concatenate(uniform_parts[s] + [blocks[s]]) for s in range(n_shards)
    ]

    order = rng.permutation(n_shards)
    shards = []
    for k in range(cfg.n_clients):
        mine = order[k * cfg.shards_per_client : (k + 1) * cfg.shards_per_client]
        idx = np.concatenate([shard_indices[s] for s in mine])
        shards.append(ClientShard.build(k, idx, ds))

    pooled = sum(shard.counts for shard in shards)
    if np.any(pooled == 0):
        missing = np.flatnonzero(pooled == 0).tolist()
        raise ValueError(
            f"categories {missing} are absent from every client; the pooled "
            "distribution must be strictly positive"
        )
    return shards

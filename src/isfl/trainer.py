"""Client-side local training with category-weighted minibatch sampling.

A sampling plan is the distribution a client draws from. A category plan, a
CategoryDistribution q, picks the category first and then a sample uniformly
from that category's local pool, realizing the weighted-gradient update
(weights q_i / p_local_i) by sampling rather than by loss re-weighting.
GradNorm-style baselines instead pass per-sample probabilities directly.

``local_train`` trains all clients of a round in lockstep. Each client first
draws the batch indices of its whole local run from a fresh stream of its own
seed (``draw_batches``): under a category plan, one ``random_raw`` block of
PCG64 words, a double per category and a 32-bit half per position; under a
per-sample plan, one ``rng.random`` call. Every client holds an equal shard
of one dataset, the layout ``data.sort_and_partition`` makes, and trains
with the same TrainerConfig, so all share one batch schedule; its start,
plan and seed are its own, so the clients of several federated runs (one per
strategy) train in one call. They share one (K, P) parameter stack,
and each SGD step updates the whole stack at once (``model.sgd_stepper``).
Every client ends bit for bit where it would end training alone; a lone
client is a stack of one.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .data import CategoryDistribution, ClientShard, Dataset
from .model import ModelSpec, check_batch, per_sample_grad_norms, sgd_stepper


@dataclass(frozen=True)
class TrainerConfig:
    batch_size: int = 128
    local_epochs: int = 5
    eta: float = 1e-3
    sampling_ratio: float = 1.0

    def __post_init__(self):
        if self.batch_size < 1 or self.local_epochs < 1:
            raise ValueError("batch_size and local_epochs must be >= 1")
        if not (math.isfinite(self.eta) and self.eta >= 0.0):
            raise ValueError(f"eta must be finite and non-negative (got {self.eta!r})")
        if not 0.0 < self.sampling_ratio <= 1.0:
            raise ValueError("sampling_ratio must lie in (0, 1]")


def _epoch(n_samples: int, cfg: TrainerConfig) -> tuple[int, int]:
    """One epoch's full batches and the size of its last, smaller batch (0 for
    none): each epoch touches exactly floor(sampling_ratio * n_samples)
    samples in batches of cfg.batch_size."""
    return divmod(math.floor(cfg.sampling_ratio * n_samples), cfg.batch_size)


def epoch_batches(n_samples: int, cfg: TrainerConfig) -> int:
    """How many batches one epoch has, counted without building them."""
    full, tail = _epoch(n_samples, cfg)
    return full + (tail > 0)


def batch_sizes(n_samples: int, cfg: TrainerConfig) -> tuple[int, ...]:
    """Batch sizes of a whole local run: cfg.local_epochs epochs (``_epoch``)."""
    full, tail = _epoch(n_samples, cfg)
    return ((cfg.batch_size,) * full + ((tail,) if tail else ())) * cfg.local_epochs


def _cdf(probs: np.ndarray) -> np.ndarray:
    """The table Generator.choice searches: draws with
    ``cdf.searchsorted(rng.random(n), side="right")`` equal its draws."""
    cdf = np.cumsum(probs)
    cdf /= cdf[-1]
    return cdf


@functools.lru_cache(maxsize=8)
def _word_layout(sizes: tuple[int, ...]) -> tuple[np.ndarray, ...]:
    """Where a batch schedule's draws sit in the raw PCG64 words of a fresh
    stream: the word of each double, the word of each pair of position
    halves, and each draw's batch. Every position reads one 32-bit half, the
    low half of a word first."""
    bounds = np.cumsum((0, *sizes))
    before = (bounds + 1) // 2  # position words fetched before each batch
    # batch b reads its doubles, then fetches the position words first read in it
    doubles = np.arange(bounds[-1]) + np.repeat(before[:-1], sizes)
    pairs = np.repeat(bounds[1:], np.diff(before)) + np.arange(before[-1])
    batch = np.repeat(np.arange(len(sizes)), sizes)
    for layout in (doubles, pairs, batch):
        layout.flags.writeable = False
    return doubles, pairs, batch


def check_plan(shard: ClientShard, plan: CategoryDistribution | np.ndarray) -> None:
    """Raise ValueError, its message prefixed ``client {id}: ``, unless
    ``plan`` can draw from ``shard``: per-sample probabilities, one per shard
    row, that CategoryDistribution accepts, or a CategoryDistribution over the
    shard's categories with mass only on categories the shard holds."""
    try:
        if isinstance(plan, np.ndarray):
            if plan.shape != (len(shard),):
                raise ValueError("per-sample probabilities must match the shard size")
            CategoryDistribution(plan)
            return
        q = plan.probs
        if q.size != shard.dataset.n_classes:
            raise ValueError("plan and shard category counts differ")
        support = np.flatnonzero(q > 0.0)
        if np.any(shard.counts[support] == 0):
            lacking = support[shard.counts[support] == 0][0]
            raise ValueError(f"plan assigns mass to category {lacking} the shard lacks")
    except ValueError as exc:
        raise ValueError(f"client {shard.client_id}: {exc}") from exc


def draw_batches(
    shard: ClientShard,
    plan: CategoryDistribution | np.ndarray,
    sizes: tuple[int, ...],
    seed: int,
) -> np.ndarray:
    """Row indices into ``shard.dataset`` for consecutive batches of ``sizes``,
    drawn from a fresh stream of ``seed`` after one ``check_plan``.

    A category plan draws, for each batch, the categories and then a position
    (with replacement) in each drawn category's local pool, grouped by
    ascending category, all read from one ``random_raw`` block of
    ``PCG64(seed)`` in the layout of ``_word_layout``: a category is the
    double of its word, and a position is ``(half * pool) >> 32`` of its
    32-bit half. The README says how this stream relates to numpy's
    per-batch calls. A per-sample probability vector draws shard rows
    directly, with one ``rng.random`` call for the whole run.
    """
    check_plan(shard, plan)
    if isinstance(plan, np.ndarray):
        u = np.random.default_rng(seed).random(sum(sizes))
        return shard.indices[_cdf(plan).searchsorted(u, side="right")]
    cdf, pool_sizes = _cdf(plan.probs), shard.counts
    doubles, pairs, batch = _word_layout(sizes)
    n = doubles.size
    words = np.random.PCG64(seed).random_raw(n + pairs.size)
    cats = cdf.searchsorted((words[doubles] >> 11) * 2.0**-53, side="right")
    # the positions are drawn by category within each batch, batch after
    # batch; a stable sort gives that order on any integer type that holds the keys
    keys = (batch * cdf.size + cats).astype(np.min_scalar_type(len(sizes) * cdf.size))
    order = np.argsort(keys, kind="stable")
    # each word's low half, then its high half
    halves = words[pairs].astype("<u8").view("<u4")[:n].astype(np.uint64)
    positions = np.empty(n, dtype=np.int64)
    positions[order] = (halves * pool_sizes.astype(np.uint64)[cats[order]]) >> 32
    first = np.cumsum(pool_sizes) - pool_sizes
    return shard.category_rows[first[cats] + positions]


def local_train(
    spec: ModelSpec,
    params: np.ndarray,
    shards: list[ClientShard],
    plans: list[CategoryDistribution | np.ndarray],
    cfg: TrainerConfig,
    seeds: list[int],
) -> np.ndarray:
    """Run every client's local epochs of weighted minibatch SGD.

    Client k starts from ``params``, one (P,) vector for every client or a
    (K, P) stack with row k for client k, and trains on ``shards[k]``,
    drawing its batches from ``plans[k]`` (a CategoryDistribution over
    categories or a per-sample probability vector) with a generator seeded
    with ``seeds[k]``; ``cfg`` is shared by every client (see
    ``batch_sizes`` for the batches).
    The shards must be of one dataset and of one size (else ValueError); a
    shard may appear more than once, under other plans. Clients train in
    lockstep as one stack. Returns the (K, P) stack of the clients'
    parameters, row k for client k. Deterministic for given seeds.
    """
    if not len(shards) == len(plans) == len(seeds):
        raise ValueError("need one plan and one seed per shard")
    data, n_samples = shards[0].dataset, len(shards[0])
    if any(shard.dataset is not data or len(shard) != n_samples for shard in shards):
        raise ValueError("every client must hold an equal shard of one dataset")
    check_batch(spec, data)
    sizes = batch_sizes(n_samples, cfg)
    rows = np.stack(
        [draw_batches(shard, plan, sizes, seed) for shard, plan, seed in zip(shards, plans, seeds)]
    )
    # copy() is C-ordered, as sgd_stepper requires; np.array would keep the
    # broadcast's stride order (column-major), which sgd_stepper rejects
    stack = np.broadcast_to(params, (len(shards), params.shape[-1])).copy()
    if cfg.eta > 0.0:
        step = sgd_stepper(spec, stack)
        start = 0
        # a diverging client overflows here; the caller's finiteness check names it
        with np.errstate(over="ignore", invalid="ignore"):
            for size in sizes:
                batch = rows[:, start : start + size]
                step(data.features.take(batch, axis=0), data.labels.take(batch), cfg.eta)
                start += size
    return stack


def gradnorm_plan(spec: ModelSpec, params: np.ndarray, data: Dataset) -> np.ndarray:
    """Per-sample probabilities over a client's samples ``data``, proportional
    to their gradient norms at ``params``.

    Falls back to uniform when every norm is zero.
    """
    norms = per_sample_grad_norms(spec, params, data)
    total = norms.sum()
    if total == 0.0:
        return np.full(len(data), 1.0 / len(data))
    return norms / total


def rw_plan(shard: ClientShard) -> CategoryDistribution:
    """Re-weighting baseline: sample the present categories uniformly."""
    support = shard.counts > 0
    return CategoryDistribution(np.where(support, 1.0 / support.sum(), 0.0))

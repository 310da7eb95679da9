"""Client-side local training with category-weighted minibatch sampling.

A sampling plan picks the category first (with its resampling probability) and
then a sample uniformly from that category's local pool, realizing the
weighted-gradient update by sampling rather than by loss re-weighting.
GradNorm-style baselines instead pass per-sample probabilities directly.

``local_train`` trains all clients of a round in lockstep. Each client first
draws the batch indices of its whole local run from its own generator
(``draw_batches``). The generator-call contract: a category plan makes two
calls per batch, ``rng.random(size)`` for the categories and one array-bound
``rng.integers`` for the pool positions; a per-sample plan makes one
``rng.random`` call per run. Every client of a run trains with the same
TrainerConfig, and only its generator seed is its own. Clients with the same
batch schedule (equal-sized shards have one) then share one (K, P) parameter
stack, and each SGD step updates the whole stack at once
(``model.sgd_step_stack``). Every client ends bit for bit where it would end
training alone; a lone client is a stack of one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .data import CategoryDistribution, ClientShard, Dataset
from .isweights import SamplingPlan
from .model import ModelSpec, check_batch, per_sample_grad_norms, sgd_step_stack

# Generator.choice's tolerance on the sum of a probability vector
_SUM_TOL = math.sqrt(np.finfo(np.float64).eps)


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


def batch_sizes(n_samples: int, cfg: TrainerConfig) -> tuple[int, ...]:
    """Batch sizes of a whole local run: each epoch touches exactly
    floor(sampling_ratio * n_samples) samples in batches of cfg.batch_size,
    the last batch possibly smaller."""
    full, tail = divmod(math.floor(cfg.sampling_ratio * n_samples), cfg.batch_size)
    return ((cfg.batch_size,) * full + ((tail,) if tail else ())) * cfg.local_epochs


def _cdf(probs: np.ndarray) -> np.ndarray:
    """The table Generator.choice searches: draws with
    ``cdf.searchsorted(rng.random(n), side="right")`` equal its draws."""
    cdf = np.cumsum(probs)
    cdf /= cdf[-1]
    return cdf


def draw_batches(
    shard: ClientShard,
    plan: SamplingPlan | np.ndarray,
    sizes: tuple[int, ...],
    rng: np.random.Generator,
) -> np.ndarray:
    """Row indices into ``shard.dataset`` for consecutive batches of ``sizes``.

    A category plan makes two generator calls per batch: one ``rng.random``
    call draws the batch's categories, and one array-bound ``rng.integers``
    call draws a position (with replacement) in each drawn category's local
    pool, the draws grouped by ascending category. numpy's array-bound
    ``integers`` consumes the stream exactly as one scalar-bound call per
    drawn category would, so the draws equal those of a per-category loop.
    A per-sample probability vector draws shard rows directly, with one
    ``rng.random`` call for the whole run. The plan is checked once, before
    any draw.
    """
    bounds = np.cumsum((0, *sizes))
    if isinstance(plan, np.ndarray):
        if plan.shape != (len(shard),):
            raise ValueError("per-sample probabilities must match the shard size")
        if not (np.all(plan >= 0.0) and abs(plan.sum() - 1.0) <= _SUM_TOL):
            raise ValueError("per-sample probabilities must be non-negative and sum to 1")
        return shard.indices[_cdf(plan).searchsorted(rng.random(bounds[-1]), side="right")]
    q = plan.q.probs
    if q.size != shard.dataset.n_classes:
        raise ValueError("plan and shard category counts differ")
    support = np.flatnonzero(q > 0.0)
    if support.size == 0:
        raise ValueError("sampling plan has empty support")
    pool_sizes = shard.counts
    if np.any(pool_sizes[support] == 0):
        lacking = support[pool_sizes[support] == 0][0]
        raise ValueError(f"plan assigns mass to category {lacking} the shard lacks")
    cdf = _cdf(q)
    cats = np.empty(bounds[-1], dtype=np.int64)
    positions = np.empty(bounds[-1], dtype=np.int64)  # in each batch, by category
    for start, stop in zip(bounds[:-1], bounds[1:]):
        drawn = cdf.searchsorted(rng.random(stop - start), side="right")
        cats[start:stop] = drawn
        positions[start:stop] = rng.integers(0, pool_sizes[np.sort(drawn)])
    # the order that groups every batch by category, batch after batch; a
    # stable sort gives the same order on any integer type that holds the keys
    batch = np.repeat(np.arange(len(sizes)), sizes)
    keys = (batch * q.size + cats).astype(np.min_scalar_type(len(sizes) * q.size))
    order = np.argsort(keys, kind="stable")
    first = np.cumsum(pool_sizes) - pool_sizes
    slots = np.empty(bounds[-1], dtype=np.int64)  # positions in the joined pools
    slots[order] = first[cats[order]] + positions
    return shard.category_rows[slots]


def _joint_rows(datasets: list[Dataset]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Features and labels of the distinct datasets end to end, and where each
    given dataset starts there. Clients of one partition share one dataset,
    which is then used as it is, without a copy."""
    distinct = list({id(ds): ds for ds in datasets}.values())
    first = dict(zip(map(id, distinct), np.cumsum([0, *map(len, distinct)])))
    offsets = np.array([first[id(ds)] for ds in datasets])
    if len(distinct) == 1:
        return distinct[0].features, distinct[0].labels, offsets
    return (
        np.concatenate([ds.features for ds in distinct]),
        np.concatenate([ds.labels for ds in distinct]),
        offsets,
    )


def local_train(
    spec: ModelSpec,
    params: np.ndarray,
    shards: list[ClientShard],
    plans: list[SamplingPlan | np.ndarray],
    cfg: TrainerConfig,
    seeds: list[int],
) -> np.ndarray:
    """Run every client's local epochs of weighted minibatch SGD from ``params``.

    Client k trains on ``shards[k]`` under ``plans[k]`` (a category-level
    SamplingPlan or a per-sample probability vector), drawing its batches from
    a generator seeded with ``seeds[k]``; ``cfg`` is shared by every client
    (see ``batch_sizes`` for the batches). Clients train in lockstep, one
    stack per distinct batch schedule. Returns the (K, P) stack of the
    clients' parameters, row k for client k.
    Deterministic for given seeds.
    """
    if not len(shards) == len(plans) == len(seeds):
        raise ValueError("need one plan and one seed per shard")
    stacks: dict[tuple[int, ...], list[int]] = {}
    draws = []
    for k, (shard, plan, seed) in enumerate(zip(shards, plans, seeds)):
        check_batch(spec, shard.dataset)
        sizes = batch_sizes(len(shard), cfg)
        draws.append(draw_batches(shard, plan, sizes, np.random.default_rng(seed)))
        stacks.setdefault(sizes, []).append(k)

    trained = np.empty((len(shards), params.size))
    for sizes, members in stacks.items():
        stack = np.tile(params, (len(members), 1))
        if cfg.eta > 0.0:
            features, labels, offsets = _joint_rows([shards[k].dataset for k in members])
            rows = np.stack([draws[k] for k in members]) + offsets[:, None]
            start = 0
            for size in sizes:
                batch = rows[:, start : start + size]
                sgd_step_stack(
                    spec, stack, features.take(batch, axis=0), labels.take(batch), cfg.eta
                )
                start += size
        trained[members] = stack
    return trained


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


def rw_plan(shard: ClientShard) -> SamplingPlan:
    """Re-weighting baseline: sample the present categories uniformly."""
    pk = shard.local_distribution.probs
    support = pk > 0.0
    q = np.where(support, 1.0 / support.sum(), 0.0)
    return SamplingPlan(CategoryDistribution(q), shard.local_distribution)

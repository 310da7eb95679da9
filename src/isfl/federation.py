"""Round-based federated orchestration with pluggable sampling strategies.

Every round: all clients train locally under their current sampling plans, in
one lockstep ``local_train`` call that returns their parameters as one (K, P)
stack; the server takes the weighted average of its rows, plans are refreshed
according to the strategy (isfl: from the curvature rows of the whole stack
against the average), and the aggregate is broadcast back. Parameters are
plain arrays throughout. Each round's wall time is split into the phases of
PHASES.

Round 1 is the same for every strategy: all start from unit-weight plans,
``init_params`` seeded by ``derive_seed(seed, 0)`` and the client seeds
``derive_seed(seed, 1, 1, k)`` under one model and trainer config, and the
strategy and ``varpi`` first act in round 1's server phases. So an opening
(``open_run``) trains, aggregates and evaluates round 1 once, and the
strategies of one seed run from it with the same bytes.

Strategies:

  fedavg       unit weights throughout (plain federated averaging)
  rw_is        uniform over each client's present categories (from round 2)
  gradnorm_is  per-sample probabilities proportional to gradient norms
  isfl         curvature-driven optimal category weights via the solver
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .data import ClientShard, Dataset, global_distribution
from .diagnostics import RoundRecord, RunLog
from .isweights import SamplingPlan, rho, solve_is_weights, uniform_plan
from .lipschitz import estimate_lipschitz, estimate_sgd_stats
from .model import ModelSpec, evaluate, init_params
from .trainer import TrainerConfig, gradnorm_plan, local_train, rw_plan

STRATEGIES = ("fedavg", "rw_is", "gradnorm_is", "isfl")

STATS_DRAWS = 8

# Wall-clock phases of a round, in order: local training, aggregation, the
# curvature rows, next round's plans and their rho scores, the noise
# statistics of the diagnostics record, and evaluation of the aggregate
PHASES = ("train", "aggregate", "curvature", "solve", "stats", "eval")


class RoundFailure(RuntimeError):
    """A module error aborted the run; carries the failing round index."""

    def __init__(self, round_index: int, message: str):
        super().__init__(f"round {round_index}: {message}")
        self.round_index = round_index
        self.message = message

    def __reduce__(self):
        # rebuilt from both fields, so it crosses a worker-process boundary
        return type(self), (self.round_index, self.message)


@dataclass(frozen=True)
class FederationConfig:
    model: ModelSpec
    trainer: TrainerConfig
    n_rounds: int = 25
    strategy: str = "fedavg"
    varpi: float = 0.05
    seed: int = 0

    def __post_init__(self):
        if self.n_rounds < 1:
            raise ValueError("n_rounds must be >= 1")
        if self.strategy not in STRATEGIES:
            raise ValueError(f"strategy must be one of {STRATEGIES} (got {self.strategy!r})")
        if not 0.0 <= self.varpi < 1.0:
            raise ValueError("varpi must lie in [0, 1)")


@dataclass
class RoundMetrics:
    """One round's outcome; the rho fields are pi-weighted client means (isfl only)."""

    round_index: int
    train_loss: float
    acc_test: float
    acc_pool: float
    rho_realized: float | None
    rho_theory: float | None
    seconds: float
    phases: dict[str, float]  # wall seconds per PHASES entry; they sum to at most seconds


def size_proportional_weights(shards: list[ClientShard]) -> np.ndarray:
    sizes = np.array([len(s) for s in shards], dtype=np.float64)
    return sizes / sizes.sum()


def aggregate(stack: np.ndarray, pi: np.ndarray) -> np.ndarray:
    """Convex combination of the rows of a (K, P) client stack, accumulated
    row by row in client order (``pi @ stack`` rounds differently)."""
    if len(stack) != len(pi):
        raise ValueError("need one weight per parameter vector")
    total = np.zeros(stack.shape[1])
    for weight, row in zip(pi, stack):
        total += float(weight) * row
    return total


class _Laps:
    """Wall seconds per phase; each lap runs from the previous one."""

    def __init__(self):
        self.seconds = dict.fromkeys(PHASES, 0.0)
        self._mark = time.perf_counter()

    def lap(self, phase: str) -> None:
        now = time.perf_counter()
        self.seconds[phase] += now - self._mark
        self._mark = now


def derive_seed(master: int, *tags: int) -> int:
    """Stable per-(stage, round, client) child seed."""
    return int(np.random.SeedSequence([master, *tags]).generate_state(1)[0])


def _train_round(cfg, params, shards, plans, seeds, pi, pool, test_set, laps):
    """One round's local stack from ``params``, its aggregate, and the
    aggregate's pooled loss, pooled accuracy and test accuracy."""
    stack = local_train(cfg.model, params, shards, plans, cfg.trainer, seeds)
    laps.lap("train")
    new = aggregate(stack, pi)
    laps.lap("aggregate")
    loss, acc_pool = evaluate(cfg.model, new, pool)
    _, acc_test = evaluate(cfg.model, new, test_set)
    laps.lap("eval")
    return stack, new, loss, acc_pool, acc_test


class Opening(NamedTuple):
    """What the strategies of one run share (module docstring): the pooled
    data with each client's rows as a view, the pooled loss at the initial
    parameters, and round 1 as ``_train_round`` returns it, with the seconds
    of its train, aggregate and eval phases. Its arrays are read-only."""

    shards: tuple[ClientShard, ...]
    test_set: Dataset
    model: ModelSpec
    trainer: TrainerConfig
    seed: int
    pool: Dataset
    own: tuple[Dataset, ...]
    loss_start: float
    round_one: tuple
    phases: dict[str, float]


def open_run(shards: list[ClientShard], cfg: FederationConfig, test_set: Dataset) -> Opening:
    """Round 1 of ``run`` under ``cfg``, for any strategy. Raises ValueError
    when the pooled loss at the initial parameters is not finite, and
    RoundFailure for round 1 when a module raises."""
    pool = Dataset(
        np.vstack([s.dataset.features[s.indices] for s in shards]),
        np.concatenate([s.dataset.labels[s.indices] for s in shards]),
        shards[0].dataset.n_classes,
    )
    pool.features.flags.writeable = pool.labels.flags.writeable = False
    # each client's samples as a dataset: a view of its rows of the pool
    starts = np.cumsum([0, *map(len, shards)])
    own = tuple(
        Dataset(pool.features[a:b], pool.labels[a:b], pool.n_classes)
        for a, b in zip(starts[:-1], starts[1:])
    )
    params = init_params(cfg.model, seed=derive_seed(cfg.seed, 0))
    loss_start, _ = evaluate(cfg.model, params, pool)
    if not np.isfinite(loss_start):
        raise ValueError("the pooled loss at the initial parameters is not finite")
    plans = [uniform_plan(s.local_distribution) for s in shards]
    seeds = [derive_seed(cfg.seed, 1, 1, k) for k in range(len(shards))]
    laps = _Laps()
    try:
        round_one = _train_round(
            cfg, params, shards, plans, seeds, size_proportional_weights(shards), pool,
            test_set, laps,
        )
    except Exception as exc:
        raise RoundFailure(1, str(exc)) from exc
    for array in round_one[:2]:
        array.flags.writeable = False
    return Opening(
        tuple(shards), test_set, cfg.model, cfg.trainer, cfg.seed, pool, own, loss_start,
        round_one, laps.seconds,
    )


def run(
    shards: list[ClientShard],
    cfg: FederationConfig,
    test_set: Dataset,
    probe: Dataset | None = None,
    recorder: RunLog | None = None,
    opening: Opening | None = None,
) -> list[RoundMetrics]:
    """Execute the full federated schedule and return per-round metrics.

    ``probe`` (held-out data) is required for the isfl strategy, which
    re-estimates curvature rows on it and solves the next round's plans at
    every aggregation but the last of a multi-round run, which nothing would
    read. When ``recorder`` is given, per-round diagnostics records are
    appended to it (isfl only). Round 1 comes from ``opening``, or from one
    ``open_run`` builds here; an opening built for other shards, another
    test set, model, trainer config or seed raises ValueError.
    Clients are weighted by shard size. Raises ValueError before round 1 when
    the pooled loss at the initial parameters is not finite. A round whose
    aggregate parameters or pooled loss are not finite raises RoundFailure
    after its server phases, as does any module error.
    Fully deterministic for a given config and seed.
    """
    if cfg.strategy == "isfl" and probe is None:
        raise ValueError("the isfl strategy needs a probe dataset")
    if opening is None:
        opening = open_run(shards, cfg, test_set)
    data_ids = [*map(id, shards), id(test_set)]
    if [*map(id, opening.shards), id(opening.test_set)] != data_ids or (
        (opening.model, opening.trainer, opening.seed) != (cfg.model, cfg.trainer, cfg.seed)
    ):
        raise ValueError("the opening was built for another run's data, model, trainer or seed")
    n_clients = len(shards)
    pi = size_proportional_weights(shards)
    p_global = global_distribution(shards)
    p_locals = [s.local_distribution for s in shards]

    if recorder is not None:
        recorder.p = p_global.probs
        recorder.p_local = np.stack([pl.probs for pl in p_locals])
        recorder.pi = pi
        recorder.varpi = cfg.varpi
        recorder.eta = cfg.trainer.eta
        recorder.local_epochs = cfg.trainer.local_epochs

    own = opening.own
    plans: list[SamplingPlan | np.ndarray] = [uniform_plan(pl) for pl in p_locals]
    # isfl: curvature rows the plans in effect were solved from. Round 1 trains
    # under unit weights before any estimate exists, so these all-ones rows
    # only stand in for a client whose round-1 deviation is zero
    lips = np.ones((n_clients, p_global.probs.size))
    loss_start = opening.loss_start

    metrics: list[RoundMetrics] = []
    for rnd in range(1, cfg.n_rounds + 1):
        t0 = time.perf_counter()
        laps = _Laps()
        try:
            if rnd == 1:
                trained = opening.round_one
            else:
                seeds = [derive_seed(cfg.seed, 1, rnd, k) for k in range(n_clients)]
                trained = _train_round(
                    cfg, global_params, shards, plans, seeds, pi, opening.pool, test_set, laps
                )
            local_stack, new_global, train_loss, acc_pool, acc_test = trained

            rho_realized = rho_theory = None
            if cfg.strategy == "isfl":
                q_used = np.stack([plan.q.probs for plan in plans])
                # refresh the curvature estimates and solve next round's plans
                fresh = lips
                if rnd == 1 or rnd < cfg.n_rounds:
                    fresh = estimate_lipschitz(cfg.model, local_stack, new_global, probe, lips)
                    laps.lap("curvature")
                    plans = [
                        solve_is_weights(p_global, p_locals[k], fresh[k], cfg.varpi)
                        for k in range(n_clients)
                    ]
                # in-effect view of this round: the plans the clients trained
                # under and the optimum for the curvature those plans were
                # solved from. No estimate was in effect during round 1, so it
                # is scored on the first one, from which round 2's plans come;
                # from round 2 on the plan in effect is itself the optimum
                if rnd == 1:
                    in_effect = fresh
                    q_star = np.stack([plan.q.probs for plan in plans])
                else:
                    in_effect = lips
                    q_star = q_used
                rho_realized = float(rho(q_used, p_global, in_effect) @ pi)
                rho_theory = float(rho(q_star, p_global, in_effect) @ pi)
                laps.lap("solve")
                if recorder is not None:
                    sigma2 = np.empty(n_clients)
                    g2 = 0.0
                    for k in range(n_clients):
                        stats = estimate_sgd_stats(
                            cfg.model,
                            new_global,
                            own[k],
                            cfg.trainer.batch_size,
                            STATS_DRAWS,
                            seed=derive_seed(cfg.seed, 2, rnd, k),
                        )
                        sigma2[k] = stats.sigma2
                        g2 = max(g2, stats.g2)
                    dev2 = np.array(
                        [float(np.linalg.norm(row - new_global)) ** 2 for row in local_stack]
                    )
                    recorder.records.append(
                        RoundRecord(
                            round_index=rnd,
                            lipschitz=in_effect,
                            q_used=q_used,
                            q_star=q_star,
                            sigma2=sigma2,
                            g2=g2,
                            dev2=dev2,
                            loss_start=loss_start,
                        )
                    )
                    laps.lap("stats")
                lips = fresh
            elif cfg.strategy == "rw_is":
                plans = [rw_plan(shards[k]) for k in range(n_clients)]
            elif cfg.strategy == "gradnorm_is":
                plans = [
                    gradnorm_plan(cfg.model, new_global, own[k])
                    for k in range(n_clients)
                ]
            laps.lap("solve")

            global_params = new_global
            if not (np.isfinite(train_loss) and np.all(np.isfinite(global_params))):
                raise ValueError("aggregate or pooled loss is not finite; the run diverged")
        except Exception as exc:
            raise RoundFailure(rnd, str(exc)) from exc
        seconds = time.perf_counter() - t0
        if rnd == 1:  # the opening trained, aggregated and evaluated round 1
            for phase, secs in opening.phases.items():
                laps.seconds[phase] += secs
            seconds += sum(opening.phases.values())

        metrics.append(
            RoundMetrics(
                round_index=rnd,
                train_loss=train_loss,
                acc_test=acc_test,
                acc_pool=acc_pool,
                rho_realized=rho_realized,
                rho_theory=rho_theory,
                seconds=seconds,
                phases=laps.seconds,
            )
        )
        loss_start = train_loss
    return metrics

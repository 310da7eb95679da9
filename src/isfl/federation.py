"""Round-based federated orchestration with pluggable sampling strategies.

Every round: all clients train locally under their current sampling plans, in
one lockstep ``local_train`` call that returns their parameters as one (K, P)
stack; the server takes the weighted average of its rows, plans are refreshed
according to the strategy (isfl: from the curvature rows of the whole stack
against the average), and the aggregate is broadcast back; no strategy
refreshes plans after the last round. Parameters are plain arrays throughout.
Each round's wall time is split into the phases of PHASES.

Round 1 is the same for every strategy: all start from unit-weight plans,
``init_params`` seeded by ``derive_seed(seed, 0)`` and the client seeds
``derive_seed(seed, 1, 1, k)`` under one model and trainer config, and the
strategy and ``varpi`` first act in round 1's server phases. So the
strategies of one seed train together (``run_lockstep``): round 1 trains,
aggregates and evaluates once for all of them, and from round 2 on one
``local_train`` call per round trains the clients of every strategy as one
(S K, P) stack, each strategy's rows from its own aggregate under its own
plans, with the shared client seeds ``derive_seed(seed, 1, round, k)``. Each
strategy then aggregates its own K rows, evaluates and runs its server
phases as it would alone. Stacked rows go through the same per-slice
kernels, so every strategy's bytes equal its solo run's; ``run`` is the loop
over one config.

Strategies:

  fedavg       unit weights throughout (plain federated averaging)
  rw_is        uniform over each client's present categories (from round 2)
  gradnorm_is  per-sample probabilities proportional to gradient norms
  isfl         curvature-driven optimal category weights via the solver
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass

import numpy as np

from .data import ClientShard, Dataset, global_distribution
from .diagnostics import RoundRecord, RunLog
from .isweights import SamplingPlan, solve_is_weights, uniform_plan
from .lipschitz import estimate_lipschitz, estimate_sgd_stats
from .model import ModelSpec, evaluate, init_params
from .trainer import TrainerConfig, check_plan, gradnorm_plan, local_train, rw_plan

STRATEGIES = ("fedavg", "rw_is", "gradnorm_is", "isfl")

# Wall-clock phases of a round, in order: local training, aggregation, the
# curvature rows, next round's plans, the noise statistics of the diagnostics
# record, and evaluation of the aggregate
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
    """One round's outcome; isfl's penalty scores come from the run's RunLog
    (``diagnostics.bounds_rows``)."""

    round_index: int
    train_loss: float
    acc_test: float
    acc_pool: float
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
    """Wall seconds per phase; each lap runs from the previous one. A round's
    laps start from ``shared``, the seconds of its phases that ran outside
    its own code: round 1's shared training, aggregation and evaluation, or
    the training call a later round shares with the other strategies of its
    lockstep loop."""

    def __init__(self, shared: dict[str, float] | None = None):
        shared = shared or {}
        self.seconds = dict.fromkeys(PHASES, 0.0) | shared
        self._shared = sum(shared.values())
        self._start = self._mark = time.perf_counter()

    def lap(self, phase: str) -> None:
        now = time.perf_counter()
        self.seconds[phase] += now - self._mark
        self._mark = now

    def total(self) -> float:
        """The shared seconds and the wall seconds since the laps began."""
        return self._shared + time.perf_counter() - self._start


def derive_seed(master: int, *tags: int) -> int:
    """Stable per-(stage, round, client) child seed."""
    return int(np.random.SeedSequence([master, *tags]).generate_state(1)[0])


def _aggregate_round(spec, stack, pi, pool, test_set, laps):
    """A round's local ``stack``, its aggregate, and the aggregate's pooled
    loss, pooled accuracy and test accuracy."""
    new = aggregate(stack, pi)
    laps.lap("aggregate")
    loss, acc_pool = evaluate(spec, new, pool)
    _, acc_test = evaluate(spec, new, test_set)
    laps.lap("eval")
    return stack, new, loss, acc_pool, acc_test


def _rounds(shards, cfg, test_set, probe, pool, loss_start, round_one, phases):
    """The schedule of ``cfg`` over the pooled client data ``pool`` from the
    initial pooled loss and round 1 (``_aggregate_round``'s outcome, with the
    seconds of its phases), as a generator: before each later round it
    checks its plans and yields the aggregate its clients start from with
    those plans, and it is sent the round's (K, P) local stack with the
    seconds of the training call. It returns the run's metrics and log, and
    raises RoundFailure for a failed round (``run``)."""
    n_clients = len(shards)
    pi = size_proportional_weights(shards)
    p_global = global_distribution(shards)
    p_locals = [s.local_distribution for s in shards]
    log = RunLog(
        p=p_global.probs,
        p_local=np.stack([pl.probs for pl in p_locals]),
        pi=pi,
        varpi=cfg.varpi,
        eta=cfg.trainer.eta,
        local_epochs=cfg.trainer.local_epochs,
    )

    bounds = np.cumsum([0, *map(len, shards)])  # client k: pool rows bounds[k]:bounds[k + 1]
    own = [  # each client's samples as a dataset: a view of its rows of the pool
        Dataset(pool.features[a:b], pool.labels[a:b], pool.n_classes)
        for a, b in zip(bounds[:-1], bounds[1:])
    ]
    plans: list[SamplingPlan | np.ndarray] = [uniform_plan(pl) for pl in p_locals]
    # isfl: curvature rows the plans in effect were solved from. Round 1 trains
    # under unit weights before any estimate exists, so these all-ones rows
    # only stand in for a client whose round-1 deviation is zero
    lips = np.ones((n_clients, p_global.probs.size))

    metrics: list[RoundMetrics] = []
    laps, trained = _Laps(phases), round_one
    for rnd in range(1, cfg.n_rounds + 1):
        try:
            if rnd > 1:
                for shard, plan in zip(shards, plans):
                    check_plan(shard, plan)
                local_stack, train_s = yield global_params, plans
                laps = _Laps({"train": train_s})
                trained = _aggregate_round(cfg.model, local_stack, pi, pool, test_set, laps)
            local_stack, new_global, train_loss, acc_pool, acc_test = trained

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
                laps.lap("solve")
                stats = estimate_sgd_stats(
                    cfg.model, new_global, pool, bounds, cfg.trainer.batch_size
                )
                dev2 = np.array(
                    [float(np.linalg.norm(row - new_global)) ** 2 for row in local_stack]
                )
                log.records.append(
                    RoundRecord(
                        round_index=rnd,
                        lipschitz=in_effect,
                        q_used=q_used,
                        q_star=q_star,
                        sigma2=stats.sigma2,
                        g2=stats.g2,
                        dev2=dev2,
                        loss_start=loss_start,
                    )
                )
                laps.lap("stats")
                lips = fresh
            elif cfg.strategy == "rw_is" and rnd < cfg.n_rounds:
                plans = [rw_plan(shards[k]) for k in range(n_clients)]
            elif cfg.strategy == "gradnorm_is" and rnd < cfg.n_rounds:
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

        metrics.append(
            RoundMetrics(
                round_index=rnd,
                train_loss=train_loss,
                acc_test=acc_test,
                acc_pool=acc_pool,
                seconds=laps.total(),
                phases=laps.seconds,
            )
        )
        loss_start = train_loss
    return metrics, log


def run_lockstep(
    shards: list[ClientShard],
    cfgs: list[FederationConfig],
    test_set: Dataset,
    probe: Dataset | None = None,
) -> tuple[list[tuple[list[RoundMetrics], RunLog]], RoundFailure | None]:
    """``run`` for every config of ``cfgs``, one per strategy, in lockstep.

    The configs must share model, trainer config and seed (else ValueError),
    so they share round 1 and the client seeds. Round 1 trains the clients
    once, aggregates and evaluates once, and every run's server phases start
    from that outcome. From round 2 on one ``local_train`` call trains every
    run's clients as one stack, each run from its own aggregate under its own
    plans; then each run, in order, aggregates its own rows, evaluates and
    runs its server phases, as it would alone, bit for bit.

    Returns the (metrics, log) of every config before the first one that
    failed, in order, and that config's RoundFailure, or None. A failed run
    drops the runs after it, which train no further; the runs before it
    finish. A training call that raises, round 1's included, fails the first
    run in it. Raises ValueError before round 1 when the pooled loss at the
    initial parameters is not finite.
    """
    first = cfgs[0]
    if any((c.model, c.trainer, c.seed) != (first.model, first.trainer, first.seed) for c in cfgs):
        raise ValueError("lockstep runs must share model, trainer config and seed")
    if probe is None and any(c.strategy == "isfl" for c in cfgs):
        raise ValueError("the isfl strategy needs a probe dataset")
    pool = Dataset(
        np.vstack([s.dataset.features[s.indices] for s in shards]),
        np.concatenate([s.dataset.labels[s.indices] for s in shards]),
        shards[0].dataset.n_classes,
    )
    params = init_params(first.model, seed=derive_seed(first.seed, 0))
    loss_start, _ = evaluate(first.model, params, pool)
    if not np.isfinite(loss_start):
        raise ValueError("the pooled loss at the initial parameters is not finite")
    n_clients = len(shards)
    outcomes: list = [None] * len(cfgs)
    failure = None
    # round 1 is every run's: one request stands for all, and the round
    # trains, aggregates and evaluates once
    requests = {0: (params, [uniform_plan(s.local_distribution) for s in shards])}
    for rnd in itertools.count(1):
        starts = np.repeat(np.stack([start for start, _ in requests.values()]), n_clients, axis=0)
        laps = _Laps()
        try:
            stack = local_train(
                first.model, starts, list(shards) * len(requests),
                [plan for _, plans in requests.values() for plan in plans], first.trainer,
                [derive_seed(first.seed, 1, rnd, k) for k in range(n_clients)] * len(requests),
            )
            laps.lap("train")
            if rnd == 1:
                round_one = _aggregate_round(
                    first.model, stack, size_proportional_weights(shards), pool, test_set, laps
                )
        except Exception as exc:  # it fails every run in it; the first is reported
            del outcomes[min(requests) :]
            failure = RoundFailure(rnd, str(exc))
            failure.__cause__ = exc
            return outcomes, failure
        if rnd == 1:
            runs = [
                _rounds(shards, cfg, test_set, probe, pool, loss_start, round_one, laps.seconds)
                for cfg in cfgs
            ]
            sent = dict.fromkeys(range(len(runs)))  # what each run still training is sent next
        else:
            sent = {
                i: (stack[n * n_clients : (n + 1) * n_clients], laps.seconds["train"])
                for n, i in enumerate(requests)
            }
        requests = {}
        for i, value in sent.items():
            try:
                requests[i] = runs[i].send(value)
            except StopIteration as done:
                outcomes[i] = done.value
            except RoundFailure as exc:  # the runs after it are dropped
                del outcomes[i:]
                failure = exc
                break
        if not requests:
            return outcomes, failure


def run(
    shards: list[ClientShard],
    cfg: FederationConfig,
    test_set: Dataset,
    probe: Dataset | None = None,
) -> tuple[list[RoundMetrics], RunLog]:
    """Execute the full federated schedule; return per-round metrics and the
    run's log.

    ``probe`` (held-out data) is required for the isfl strategy, which
    re-estimates curvature rows on it and solves the next round's plans at
    every aggregation but the last of a multi-round run. The log holds the
    run-level constants for every strategy and, for isfl, one diagnostics
    record per round. Clients are weighted by shard size. Raises ValueError
    before round 1 when the pooled loss at the initial parameters is not
    finite. A round whose aggregate parameters or pooled loss are not finite
    raises RoundFailure after its server phases, as does any module error,
    round 1's training included. Fully deterministic for a given config and
    seed. This is ``run_lockstep`` over the one config.
    """
    outcomes, failure = run_lockstep(shards, [cfg], test_set, probe)
    if failure is not None:
        raise failure
    return outcomes[0]

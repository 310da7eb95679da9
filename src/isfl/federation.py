"""Round-based federated orchestration with pluggable sampling strategies.

Every round: all clients train locally under their current sampling plans, in
one lockstep ``local_train`` call that returns their parameters as one (K, P)
stack; the server takes the weighted average of its rows, runs its
strategy's server phase and broadcasts the aggregate back. Parameters are
plain arrays throughout; a round's wall time is split into the PHASES.

Round 1 is the same for every strategy: all start from unit-weight plans,
``init_params`` seeded by ``derive_seed(seed, 0)`` and the client seeds
``derive_seed(seed, 1, 1, k)`` under one model and trainer config, and the
strategy and ``varpi`` first act in round 1's server phases. So the strategies
of one seed train together (``run_lockstep``), each as a ``_Run`` object that
holds its plans, its aggregate, its metrics and its outcome. Round 1 trains
once for all of them. From round 2 on, one ``local_train`` call per round
trains every live run's clients as one (S K, P) stack, each run's rows from
its own aggregate under its own plans, with the shared client seeds
``derive_seed(seed, 1, round, k)``. Each run then ends every round, round 1
included, on its own K rows (``_Run.end_round``), as it would alone: the
stacked rows go through the same per-slice kernels, so its bytes equal its
solo run's. The training call is all the runs share: a run that fails leaves
the loop and the others train on. ``run`` is the loop over one config.

Strategies, the keys of ``_STRATEGY_PHASES``, one server phase each, which
refreshes the plans at every aggregation but the last:

  fedavg       unit weights throughout (plain federated averaging)
  rw_is        uniform over each client's present categories (from round 2)
  gradnorm_is  per-sample probabilities proportional to gradient norms
  isfl         the solver's category weights for the curvature rows of the
               whole stack against the average; one diagnostics record a round
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
        if self.strategy == "isfl" and self.trainer.eta <= 0.0:  # its bounds divide by eta
            raise ValueError("eta must be positive for the isfl strategy")


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
    laps start from ``train``, the seconds of the training call the run
    shares with the other strategies of its lockstep loop."""

    def __init__(self, train: float):
        self.seconds = dict.fromkeys(PHASES, 0.0) | {"train": train}
        self._start = self._mark = time.perf_counter()

    def lap(self, phase: str) -> None:
        now = time.perf_counter()
        self.seconds[phase] += now - self._mark
        self._mark = now

    def total(self) -> float:
        """The training seconds and the wall seconds since the laps began."""
        return self.seconds["train"] + time.perf_counter() - self._start


def derive_seed(master: int, *tags: int) -> int:
    """Stable per-(stage, round, client) child seed."""
    return int(np.random.SeedSequence([master, *tags]).generate_state(1)[0])


class _Run:
    """One strategy's run over the pooled client data ``pool``: its config,
    shards, pooled and local distributions, each client's view of the pool
    (``own``: pool rows ``bounds[k]:bounds[k + 1]``), test set, probe and log;
    and the state a round starts from: the aggregate ``params`` and the
    ``plans`` its clients train from and under, the pooled loss and, for
    isfl, the rows the plans were solved from. ``outcome`` is None while the
    run trains, then its (metrics, log) or the RoundFailure that ended it."""

    def __init__(self, shards, cfg, test_set, probe, pool, params, loss_start):
        self.cfg, self.shards, self.test_set = cfg, shards, test_set
        self.probe, self.pool = probe, pool
        self.p_global = global_distribution(shards)
        self.p_locals = [s.local_distribution for s in shards]
        self.log = RunLog(
            p=self.p_global.probs, p_local=np.stack([pl.probs for pl in self.p_locals]),
            pi=size_proportional_weights(shards), varpi=cfg.varpi, eta=cfg.trainer.eta,
            local_epochs=cfg.trainer.local_epochs,
        )
        self.bounds = bounds = np.cumsum([0, *map(len, shards)])
        self.own = [Dataset(pool.features[a:b], pool.labels[a:b], pool.n_classes)
                    for a, b in zip(bounds[:-1], bounds[1:])]
        self.params, self.loss_start = params, loss_start
        self.plans: list[SamplingPlan | np.ndarray] = [uniform_plan(pl) for pl in self.p_locals]
        # Round 1 trains under unit weights before any estimate exists, so these
        # all-ones rows only stand in for a client whose round-1 deviation is zero
        self.lips = np.ones((len(shards), self.p_global.probs.size))
        self.metrics: list[RoundMetrics] = []
        self.outcome: tuple[list[RoundMetrics], RunLog] | RoundFailure | None = None

    def end_round(self, rnd, laps, stack):
        """Round ``rnd`` from the clients' (K, P) local ``stack``, with ``laps``
        for its phases: aggregate with the run's client weights ``pi`` and
        evaluate on the pool and the test set, run the strategy's server
        phase, record the round's metrics, then check the plans of round
        rnd + 1. Sets ``outcome`` when the run ends: a module error or a
        non-finite aggregate or pooled loss fails round rnd, a rejected plan
        round rnd + 1."""
        cfg, failing = self.cfg, rnd
        try:
            new_global = aggregate(stack, self.log.pi)
            laps.lap("aggregate")
            train_loss, acc_pool = evaluate(cfg.model, new_global, self.pool)
            _, acc_test = evaluate(cfg.model, new_global, self.test_set)
            laps.lap("eval")

            # no plans are refreshed after the last round: no round trains under them
            self.plans = _STRATEGY_PHASES[cfg.strategy](
                self, rnd, self.plans, stack, new_global, laps, rnd < cfg.n_rounds
            )
            laps.lap("solve")

            if not (np.isfinite(train_loss) and np.all(np.isfinite(new_global))):
                raise ValueError("aggregate or pooled loss is not finite; the run diverged")
            self.metrics.append(RoundMetrics(
                round_index=rnd, train_loss=train_loss, acc_test=acc_test, acc_pool=acc_pool,
                seconds=laps.total(), phases=laps.seconds,
            ))
            self.params, self.loss_start = new_global, train_loss
            if rnd == cfg.n_rounds:
                self.outcome = self.metrics, self.log
                return
            failing = rnd + 1  # a rejected plan fails the round that would train under it
            for shard, plan in zip(self.shards, self.plans):
                check_plan(shard, plan)
        except Exception as exc:
            self.outcome = RoundFailure(failing, str(exc))
            self.outcome.__cause__ = exc


def _fedavg(srv, rnd, plans, stack, new_global, laps, refresh):
    return plans


def _rw_is(srv, rnd, plans, stack, new_global, laps, refresh):
    return [rw_plan(shard) for shard in srv.shards] if refresh else plans


def _gradnorm_is(srv, rnd, plans, stack, new_global, laps, refresh):
    return [gradnorm_plan(srv.cfg.model, new_global, own) for own in srv.own] if refresh else plans


def _isfl(srv, rnd, plans, stack, new_global, laps, refresh):
    """Solve the next plans from fresh curvature rows; record the round. Round 1
    always solves, as it is scored on the first estimate: a one-round run too."""
    cfg = srv.cfg
    q_used = np.stack([plan.q.probs for plan in plans])
    fresh = srv.lips
    if refresh or rnd == 1:
        fresh = estimate_lipschitz(cfg.model, stack, new_global, srv.probe, srv.lips)
        laps.lap("curvature")
        plans = [solve_is_weights(srv.p_global, p_local, row, cfg.varpi)
                 for p_local, row in zip(srv.p_locals, fresh)]
    # in-effect view of this round: the plans the clients trained under and the
    # optimum for the rows those plans were solved from. No estimate was in
    # effect during round 1, so it is scored on the first one, from which
    # round 2's plans come; later, the plan in effect is itself the optimum
    in_effect, q_star = srv.lips, q_used
    if rnd == 1:
        in_effect, q_star = fresh, np.stack([plan.q.probs for plan in plans])
    laps.lap("solve")
    sigma2, g2 = estimate_sgd_stats(cfg.model, new_global, srv.pool, srv.bounds,
                                    cfg.trainer.batch_size)
    srv.log.records.append(RoundRecord(
        round_index=rnd, lipschitz=in_effect, q_used=q_used, q_star=q_star,
        sigma2=sigma2, g2=g2, loss_start=srv.loss_start,
        dev2=np.array([float(np.linalg.norm(row - new_global)) ** 2 for row in stack]),
    ))
    laps.lap("stats")
    srv.lips = fresh
    return plans


# Each strategy's server phase, ``phase(srv, rnd, plans, stack, new_global,
# laps, refresh)``: the next round's plans, refreshed only when ``refresh``,
# and its own records in the log
_STRATEGY_PHASES = {"fedavg": _fedavg, "rw_is": _rw_is, "gradnorm_is": _gradnorm_is, "isfl": _isfl}
STRATEGIES = tuple(_STRATEGY_PHASES)


def run_lockstep(
    shards: list[ClientShard],
    cfgs: list[FederationConfig],
    test_set: Dataset,
    probe: Dataset | None = None,
) -> list[tuple[list[RoundMetrics], RunLog] | RoundFailure]:
    """``run`` for every config of ``cfgs``, one per strategy, in lockstep.

    The configs must share model, trainer config and seed (else ValueError),
    so they share round 1 and the client seeds. Round 1 trains the clients
    once, and every run ends the round on those K rows. From round 2 on one
    ``local_train`` call trains the clients of every run still training as
    one stack, each run from its own aggregate under its own plans. Each
    run, in order, ends every round on its K rows of the stack
    (``_Run.end_round``), as it would alone, bit for bit.

    Returns one outcome per config, in order: its (metrics, log), or the
    RoundFailure that ended it. A failed run leaves the loop and the others
    train on; a training call that raises, round 1's included, fails every
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
    runs = [_Run(shards, cfg, test_set, probe, pool, params, loss_start) for cfg in cfgs]
    # round 1 is every run's: the first run's start and plans stand for all,
    # so the round trains once
    live = runs[:1]
    for rnd in itertools.count(1):
        start = time.perf_counter()
        try:
            stack = local_train(
                first.model, np.repeat(np.stack([r.params for r in live]), n_clients, axis=0),
                list(shards) * len(live), [plan for r in live for plan in r.plans], first.trainer,
                [derive_seed(first.seed, 1, rnd, k) for k in range(n_clients)] * len(live),
            )
        except Exception as exc:  # it fails every run still training
            failure = RoundFailure(rnd, str(exc))
            failure.__cause__ = exc
            return [failure if r.outcome is None else r.outcome for r in runs]
        train_s = time.perf_counter() - start
        # each run still training ends the round on the K rows trained from
        # its own start; round 1's one block of K rows is every run's
        blocks = np.split(stack, len(live))
        for n, r in enumerate([r for r in runs if r.outcome is None]):
            r.end_round(rnd, _Laps(train_s), blocks[n % len(blocks)])
        # a run that finished or failed leaves the loop; the others train on
        live = [r for r in runs if r.outcome is None]
        if not live:
            return [r.outcome for r in runs]


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
    (outcome,) = run_lockstep(shards, [cfg], test_set, probe)
    if isinstance(outcome, RoundFailure):
        raise outcome
    return outcome

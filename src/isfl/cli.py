"""Command-line entry point for partitioning, runs, sweeps, and diagnostics.

Subcommands:
  partition   build a label-skewed split and print each client's label histogram
  run         execute federated runs for every (strategy, seed) pair
  solve       one-shot sampling-weight solve from a JSON problem
  sweep-sr    final accuracy across sampling ratios
  bounds      recompute bounds.csv from a run's diagnostics log

``ExperimentConfig`` maps its keys to each module config, one method per
config (``model_spec``, ``partition_config``, ``trainer_config``,
``federation_config``). run and sweep-sr run their jobs ``(cfg, strategy,
seed, sampling_ratio, out_dir)`` in parallel worker processes, one per CPU;
run's ratio is the config's. Round 1 is the same FedAvg round for every
strategy of one (seed, ratio), so a worker task runs the strategies of one
seed from one data build wherever that keeps every worker busy
(``group_jobs``). The task's strategies train in lockstep (``run_task``,
``federation.run_lockstep``): round 1 once for all of them, then one stacked
local run per round. A failed strategy stops no other. Each finished job's
run directory is written by ``diagnostics.write_run``. The artifacts do not
depend on the CPU count.

Exit codes: 1 config, input or run-log validation, 2 I/O, 3 capacity (too
few samples, a run too large for memory, or a worker process that died), 4 a
round failed (the run diverged or a module raised); the failing round index
goes to stderr.
"""

from __future__ import annotations  # field types stay the strings that key _KINDS

import argparse
import dataclasses
import json
import os
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import diagnostics
from .data import (
    CapacityError,
    CategoryDistribution,
    PartitionConfig,
    check_synthetic,
    generate_synthetic,
    is_integer,
    is_number,
    load_csv_dataset,
    load_dataset,
    select_probe_set,
    sort_and_partition,
    train_holdout_test_split,
    training_size,
)
from .federation import FederationConfig, RoundFailure, RoundMetrics, derive_seed, run_lockstep
from .isweights import compute_alpha, compute_gamma_star, rho, solve_is_weights
from .model import ModelSpec
from .trainer import TrainerConfig, epoch_batches


def _list_of(test):
    return lambda value: isinstance(value, (list, tuple)) and all(map(test, value))


# Each JSON kind a reader takes, by the annotation string that names it: the
# kind's test and the noun of its error
_KINDS = {
    "int": (is_integer, "an integer"),
    "float": (is_number, "a number"),
    "str": (lambda value: isinstance(value, str), "a string"),
    "str | None": (lambda value: value is None or isinstance(value, str), "a string or null"),
    "list[int]": (_list_of(is_integer), "a list of integers"),
    "list[float]": (_list_of(is_number), "a list of numbers"),
    "list[str]": (_list_of(lambda value: isinstance(value, str)), "a list of strategy names"),
}


def _check_kind(key: str, value, kind: str) -> None:
    test, noun = _KINDS[kind]
    if not test(value):
        raise ValueError(f"{key} must be {noun} (got {value!r})")


def _check_seeds(seeds) -> None:
    """Raise unless ``seeds`` is a list of non-negative integers."""
    if not isinstance(seeds, (list, tuple)) or not all(is_integer(s) and s >= 0 for s in seeds):
        raise ValueError(f"seeds must be a list of non-negative integers (got {seeds!r})")


def _reject_repeats(name: str, values: list) -> None:
    repeated = list(dict.fromkeys(v for v in values if values.count(v) > 1))
    if repeated:
        raise ValueError(f"{name} must not repeat; repeated: {repeated}")


@dataclass
class ExperimentConfig:
    """Flat experiment settings; every key is validated before any work starts."""

    classes: int = 10
    per_class: int = 2200
    dim: int = 32
    separation: float = 3.0
    dataset_path: str | None = None
    test_size: int = 1000
    holdout_size: int = 600
    clients: int = 20
    shard_size: int = 500
    shards_per_client: int = 2
    nr: float = 0.95
    hidden_dims: list[int] = field(default_factory=lambda: [16])
    activation: str = "relu"
    batch_size: int = 128
    local_epochs: int = 5
    eta: float = 1e-3
    sampling_ratio: float = 1.0
    rounds: int = 25
    strategies: list[str] = field(default_factory=lambda: ["fedavg", "isfl"])
    varpi: float = 0.05
    probe_size: int = 500
    seeds: list[int] = field(default_factory=lambda: [0])

    @classmethod
    def from_file(cls, path: str | Path) -> "ExperimentConfig":
        with open(path, "r", encoding="utf-8") as f:
            raw = json.load(f)
        if not isinstance(raw, dict):
            raise ValueError(f"a config must be a JSON object (got {type(raw).__name__})")
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = set(raw) - known
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        cfg = cls(**raw)
        cfg.validate()
        return cfg

    def validate(self) -> None:
        # Types first, each field by its annotation's JSON kind, so that no later
        # check or job meets a bool or a string where a number belongs, or a
        # float where an integer does; seeds in the message --seed shares
        _check_seeds(self.seeds)
        for f in dataclasses.fields(self):
            _check_kind(f.name, getattr(self, f.name), f.type)
        # Constructor-level checks run in the module dataclasses; this catches
        # cross-field problems before any heavy work.
        self.partition_config(seed=0)
        self.check_sampling_ratio(self.sampling_ratio)
        if not self.strategies or not self.seeds:
            raise ValueError("need at least one strategy and one seed")
        for strategy in self.strategies:
            self.federation_config(strategy, 0, self.sampling_ratio)
        # a repeated job would write one run directory twice
        for key in ("strategies", "seeds"):
            _reject_repeats(key, getattr(self, key))
        for key in ("test_size", "holdout_size", "probe_size"):
            if getattr(self, key) < 1:
                raise ValueError(f"{key} must be >= 1 (got {getattr(self, key)!r})")
        if self.probe_size > self.holdout_size:  # the probe is drawn from the holdout
            raise ValueError(
                f"probe_size ({self.probe_size}) must not exceed holdout_size "
                f"({self.holdout_size})"
            )
        if self.dataset_path is None:  # a file's size is known once a worker reads it
            check_synthetic(self.classes, self.per_class, self.dim, self.separation)
            left = training_size(self.classes * self.per_class, self.holdout_size, self.test_size)
            self.partition_config(seed=0).validate_for(left)

    def check_sampling_ratio(self, ratio: float) -> None:
        """Raise unless ``ratio`` makes a valid trainer config whose epochs
        take at least one sample of a client, and whose local run has no more
        batches than an index can count. Counts the batches, builds none."""
        samples = self.shard_size * self.shards_per_client
        per_epoch = epoch_batches(samples, self.trainer_config(ratio))
        if not per_epoch:
            raise ValueError(
                f"sampling_ratio {ratio!r} takes no sample per epoch of a "
                f"{samples}-sample client"
            )
        batches = per_epoch * self.local_epochs
        if batches > sys.maxsize:
            raise ValueError(
                f"local_epochs {self.local_epochs} makes a local run of {batches} "
                "batches, more than an index can count"
            )

    def model_spec(self) -> ModelSpec:
        return ModelSpec(
            input_dim=self.dim,
            hidden_dims=tuple(self.hidden_dims),
            n_classes=self.classes,
            activation=self.activation,
        )

    def partition_config(self, seed: int) -> PartitionConfig:
        return PartitionConfig(
            n_clients=self.clients, shard_size=self.shard_size,
            shards_per_client=self.shards_per_client, nr=self.nr, seed=seed,
        )

    def trainer_config(self, sampling_ratio: float) -> TrainerConfig:
        return TrainerConfig(
            batch_size=self.batch_size,
            local_epochs=self.local_epochs,
            eta=self.eta,
            sampling_ratio=sampling_ratio,
        )

    def federation_config(
        self, strategy: str, seed: int, sampling_ratio: float
    ) -> FederationConfig:
        return FederationConfig(
            model=self.model_spec(),
            trainer=self.trainer_config(sampling_ratio),
            n_rounds=self.rounds,
            strategy=strategy,
            varpi=self.varpi,
            seed=seed,
        )


def build_experiment_data(cfg: ExperimentConfig, seed: int):
    """Deterministic dataset, split, partition, and probe for one run seed."""
    if cfg.dataset_path is not None:
        path = Path(cfg.dataset_path)
        if path.suffix == ".csv":
            source = load_csv_dataset(path, n_classes=cfg.classes)
        else:
            source = load_dataset(path)
        if source.n_classes != cfg.classes or source.dim != cfg.dim:
            raise ValueError(
                f"dataset at {path} has shape ({source.dim} dims, "
                f"{source.n_classes} classes) but the config says "
                f"({cfg.dim}, {cfg.classes})"
            )
    else:
        source = generate_synthetic(
            cfg.classes, cfg.per_class, cfg.dim, cfg.separation,
            seed=derive_seed(seed, 10),
        )
    train, holdout, test = train_holdout_test_split(
        source, cfg.holdout_size, cfg.test_size, seed=derive_seed(seed, 11)
    )
    shards = sort_and_partition(train, cfg.partition_config(derive_seed(seed, 12)))
    probe = select_probe_set(holdout, cfg.probe_size, seed=derive_seed(seed, 13))
    return shards, probe, test


def usable_cpus() -> int:
    """CPUs this process may run on; all of them where the platform cannot say."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def group_jobs(keys: list, workers: int) -> list[list[int]]:
    """Worker tasks as lists of job indices, given each job's (seed, ratio)
    key. With G distinct keys on W workers, the jobs of the first G - G mod W
    keys make one task per key, in job order; every other job is a task of
    its own. So a worker that would have had a job still has one."""
    distinct = list(dict.fromkeys(keys))
    grouped = distinct[: len(distinct) - len(distinct) % workers]
    tasks = [[j for j, key in enumerate(keys) if key == g] for g in grouped]
    return tasks + [[j] for j, key in enumerate(keys) if key not in grouped]


def run_task(jobs: list[tuple]) -> list[list[RoundMetrics] | Exception]:
    """The jobs ``(cfg, strategy, seed, sampling_ratio, out_dir)`` of one
    (seed, ratio) key from one data build, as one lockstep loop of their
    strategies that trains round 1 once for all of them
    (``federation.run_lockstep``); then each finished job's manifest (its
    config, strategy, seed and ratio) and artifacts, in job order
    (``diagnostics.write_run``). Returns each job's metrics, or the exception
    that failed it: its own, or one that failed the whole task. A failed job
    writes nothing."""
    try:
        cfg, _, seed, ratio, _ = jobs[0]
        shards, probe, test = build_experiment_data(cfg, seed)
        fed_cfgs = [c.federation_config(s, derive_seed(seed, 20), ratio) for c, s, *_ in jobs]
        outcomes = run_lockstep(shards, fed_cfgs, test, probe)
    except Exception as exc:  # the worker's boundary: run_jobs raises it in job order
        return [exc] * len(jobs)
    done = []
    for (cfg, strategy, seed, ratio, out_dir), outcome in zip(jobs, outcomes):
        if not isinstance(outcome, RoundFailure):
            try:
                manifest = {"config": dataclasses.asdict(cfg), "strategy": strategy,
                            "seed": seed, "sampling_ratio": ratio}
                diagnostics.write_run(out_dir, manifest, *outcome)
                outcome = outcome[0]
            except Exception as exc:
                outcome = exc
        done.append(outcome)
    return done


def run_jobs(jobs: list[tuple]) -> list[list[RoundMetrics]]:
    """Every job's run and artifacts (``run_task``), in worker processes;
    each job's metrics, in job order.

    One worker per usable CPU, at most one per job, and the tasks of
    ``group_jobs``. Workers are forked where the platform offers it: a
    spawned worker re-imports numpy, about 0.1-0.2 s, which a desk-scale job
    cannot repay. The executor forks every worker before it starts its
    management thread (Python 3.11), so no fork copies a thread of its own.
    The first job to fail, in job order, raises its exception here, and
    tasks not yet started do not run; a failed job stops no other job of its
    task, and each finished job keeps its artifacts. A worker process that
    dies, as the kernel's out-of-memory kill ends one, raises CapacityError.
    """
    # imported here, as only run and sweep-sr use them: ``import isfl.cli`` skips them
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures.process import BrokenProcessPool

    import numpy.random  # noqa: F401  numpy loads it lazily: once here, not in every worker

    workers = min(len(jobs), usable_cpus())
    tasks = group_jobs([job[2:4] for job in jobs], workers)
    fork = "fork" in multiprocessing.get_all_start_methods()
    pool = ProcessPoolExecutor(
        max_workers=workers,
        mp_context=multiprocessing.get_context("fork" if fork else None),
    )
    try:
        futures = [pool.submit(run_task, [jobs[j] for j in task]) for task in tasks]
        place = {j: (f, i) for f, task in zip(futures, tasks) for i, j in enumerate(task)}
        results = []
        for j in range(len(jobs)):
            future, i = place[j]
            try:
                outcome = future.result()[i]
            except BrokenProcessPool as exc:
                raise CapacityError("a worker process died before it returned its jobs") from exc
            if isinstance(outcome, Exception):
                raise outcome
            results.append(outcome)
        return results
    finally:
        pool.shutdown(cancel_futures=True)


def _final_summary(results: dict) -> str:
    lines = ["strategy        acc_S            acc_G"]
    for strategy, per_seed in results.items():
        acc_s = np.array([m[-1].acc_test for m in per_seed])
        acc_g = np.array([m[-1].acc_pool for m in per_seed])
        std_s = acc_s.std(ddof=1) if acc_s.size > 1 else 0.0
        std_g = acc_g.std(ddof=1) if acc_g.size > 1 else 0.0
        lines.append(
            f"{strategy:<15} {acc_s.mean():.4f} +/- {std_s:.4f}"
            f"  {acc_g.mean():.4f} +/- {std_g:.4f}"
        )
    return "\n".join(lines)


def cmd_partition(args) -> int:
    cfg = ExperimentConfig.from_file(args.config)
    seed = args.seed if args.seed is not None else cfg.seeds[0]
    _check_seeds([seed])
    shards, _, _ = build_experiment_data(cfg, seed)
    print("client  samples  histogram")
    for shard in shards:
        print(f"{shard.client_id:>6}  {len(shard):>7}  {shard.counts.tolist()}")
    return 0


def cmd_run(args) -> int:
    cfg = ExperimentConfig.from_file(args.config)
    out_dir = Path(args.out)
    seeds = [args.seed] if args.seed is not None else cfg.seeds
    _check_seeds(seeds)
    jobs = [
        (cfg, strategy, seed, cfg.sampling_ratio, out_dir / f"{strategy}_seed{seed}")
        for strategy in cfg.strategies
        for seed in seeds
    ]
    finished = iter(run_jobs(jobs))
    results = {s: [next(finished) for _ in seeds] for s in cfg.strategies}
    print(_final_summary(results))
    return 0


def cmd_solve(args) -> int:
    if args.input == "-":
        raw = json.load(sys.stdin)
    else:
        with open(args.input, "r", encoding="utf-8") as f:
            raw = json.load(f)
    if not isinstance(raw, dict):
        raise ValueError(f"solve input must be a JSON object (got {type(raw).__name__})")
    kinds = {"p": "list[float]", "p_k": "list[float]", "L": "list[float]", "varpi": "float"}
    unknown = set(raw) - set(kinds)
    if unknown:
        raise ValueError(f"unknown solve input keys: {sorted(unknown)}")
    raw = {"varpi": 0.05} | raw
    values = []
    for key, kind in kinds.items():
        if key not in raw:
            raise ValueError(f"solve input is missing key {key!r}")
        _check_kind(key, raw[key], kind)
        try:  # a JSON integer beyond a float, or a p or p_k that is no distribution
            value = np.asarray(raw[key], dtype=np.float64)
            values.append(CategoryDistribution(value) if key in ("p", "p_k") else value)
        except (OverflowError, ValueError) as exc:
            raise ValueError(f"{key}: {exc}") from exc
    p, p_k, l_row, varpi = values
    if len(p_k) != len(p):
        raise ValueError(f"p_k has {len(p_k)} categories but p has {len(p)}")
    varpi = float(varpi)
    plan = solve_is_weights(p, p_k, l_row, varpi)
    alpha = compute_alpha(l_row)
    # the plan does not depend on the row's scale, but rho takes it as given
    with np.errstate(over="ignore"):
        penalty = rho(plan.q, p, l_row)
    if not np.isfinite(penalty):
        raise ValueError("the penalty rho of the plan overflows at these curvatures")
    out = {
        "alpha": alpha.tolist(),
        "gamma_star": compute_gamma_star(p, p_k, alpha, varpi),
        "q": plan.q.probs.tolist(),
        "w": plan.w.tolist(),
        "rho": penalty,
    }
    text = json.dumps(out, indent=2, sort_keys=True)
    print(text)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as f:
            f.write(text + "\n")
    return 0


def cmd_sweep_sr(args) -> int:
    cfg = ExperimentConfig.from_file(args.config)
    ratios = [float(s) for s in args.sr.split(",") if s.strip()]
    if not ratios:
        raise ValueError("need at least one sampling ratio")
    _reject_repeats("sampling ratios", ratios)
    for ratio in ratios:
        cfg.check_sampling_ratio(ratio)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    keys = [(s, r, d) for s in cfg.strategies for r in ratios for d in cfg.seeds]
    finished = run_jobs(
        [(cfg, s, d, r, out_dir / f"{s}_sr{r}_seed{d}") for s, r, d in keys]
    )
    rows = [
        (*key, metrics[-1].acc_test, metrics[-1].acc_pool)
        for key, metrics in zip(keys, finished)
    ]
    diagnostics.write_csv(out_dir / "sweep_sr.csv", "strategy,sr,seed,acc_S,acc_G", rows)
    print(f"wrote {out_dir / 'sweep_sr.csv'}")
    for strategy in cfg.strategies:
        for ratio in ratios:
            accs = [r[4] for r in rows if r[0] == strategy and r[1] == ratio]
            print(f"{strategy:<15} SR={ratio:<5} acc_G mean {np.mean(accs):.4f}")
    return 0


def cmd_bounds(args) -> int:
    print("wrote {} and {}".format(*diagnostics.rescore(args.run_dir)))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="isfl", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_part = sub.add_parser("partition", help="print each client's label histogram")
    p_part.add_argument("--config", required=True)
    p_part.add_argument("--seed", type=int, default=None)
    p_part.set_defaults(func=cmd_partition)

    p_run = sub.add_parser("run", help="run every (strategy, seed) pair")
    p_run.add_argument("--config", required=True)
    p_run.add_argument("--out", default="out")
    p_run.add_argument("--seed", type=int, default=None)
    p_run.set_defaults(func=cmd_run)

    p_solve = sub.add_parser("solve", help="one-shot weight solve from JSON")
    p_solve.add_argument("--input", required=True, help="path or - for stdin")
    p_solve.add_argument("--out", default=None)
    p_solve.set_defaults(func=cmd_solve)

    p_sweep = sub.add_parser("sweep-sr", help="sweep sampling ratios")
    p_sweep.add_argument("--config", required=True)
    p_sweep.add_argument("--sr", default="0.1,0.5,1.0")
    p_sweep.add_argument("--out", default="out")
    p_sweep.set_defaults(func=cmd_sweep_sr)

    p_bounds = sub.add_parser("bounds", help="recompute bound diagnostics")
    p_bounds.add_argument("--run-dir", required=True)
    p_bounds.set_defaults(func=cmd_bounds)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except RoundFailure as exc:
        print(f"run failed in {exc}", file=sys.stderr)
        return 4
    except (CapacityError, MemoryError) as exc:  # MemoryError: a run too large for memory
        print(f"capacity error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 3
    except (ValueError, json.JSONDecodeError, TypeError, OverflowError) as exc:
        source = {"bounds": "run log", "solve": "input"}.get(args.command, "config")
        print(f"{source} error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

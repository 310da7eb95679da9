"""Command-line entry point for partitioning, runs, sweeps, and diagnostics.

Subcommands:
  partition   build a label-skewed split and print each client's label histogram
  run         execute federated runs for every (strategy, seed) pair
  solve       one-shot sampling-weight solve from a JSON problem
  sweep-sr    final accuracy across sampling ratios
  bounds      recompute bounds.csv from a run's diagnostics log

run and sweep-sr run their jobs in parallel worker processes, one per CPU.
Round 1 is the same FedAvg round for every strategy of one (seed, ratio)
(federation's opening), so a worker task runs the strategies of one seed
from one data build and one round 1 (``run_task``) wherever that keeps every
worker busy (``group_jobs``). The artifacts do not depend on the CPU count.

Exit codes: 1 config, input or run-log validation, 2 I/O, 3 capacity, 4 a
round failed (the run diverged or a module raised); the failing round index
goes to stderr.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
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
    load_csv_dataset,
    load_dataset,
    select_probe_set,
    sort_and_partition,
    train_holdout_test_split,
)
from .federation import (
    PHASES,
    FederationConfig,
    RoundFailure,
    RoundMetrics,
    derive_seed,
    open_run,
    run,
)
from .isweights import compute_alpha, compute_gamma_star, rho, solve_is_weights
from .model import ModelSpec
from .trainer import TrainerConfig, batch_sizes

METRICS_HEADER = "round,loss,acc_S,acc_G,rho_mean,rho_theory"


# keys that hold one integer; hidden_dims and seeds hold lists of integers
_INTEGER_KEYS = (
    "classes", "per_class", "dim", "test_size", "holdout_size", "clients", "shard_size",
    "shards_per_client", "batch_size", "local_epochs", "rounds", "probe_size",
)


def _is_integer(value) -> bool:
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _check_seeds(seeds) -> None:
    """Raise unless ``seeds`` is a list of non-negative integers."""
    if not isinstance(seeds, (list, tuple)) or not all(_is_integer(s) and s >= 0 for s in seeds):
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
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = set(raw) - known
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        cfg = cls(**raw)
        cfg.validate()
        return cfg

    def validate(self) -> None:
        # Types first, so that no later check or job meets a bool or a float
        # where an integer belongs
        for key in _INTEGER_KEYS:
            if not _is_integer(getattr(self, key)):
                raise ValueError(f"{key} must be an integer (got {getattr(self, key)!r})")
        if not isinstance(self.hidden_dims, (list, tuple)) or not all(
            map(_is_integer, self.hidden_dims)
        ):
            raise ValueError(f"hidden_dims must be a list of integers (got {self.hidden_dims!r})")
        _check_seeds(self.seeds)
        # Constructor-level checks run in the module dataclasses; this catches
        # cross-field problems before any heavy work.
        PartitionConfig(
            n_clients=self.clients,
            shard_size=self.shard_size,
            shards_per_client=self.shards_per_client,
            nr=self.nr,
        )
        self.check_sampling_ratio(self.sampling_ratio)
        if not self.strategies or not self.seeds:
            raise ValueError("need at least one strategy and one seed")
        for strategy in self.strategies:
            self.federation_config(strategy, seed=0)
        # a repeated job would write one run directory twice
        for key in ("strategies", "seeds"):
            _reject_repeats(key, getattr(self, key))
        if self.eta == 0.0 and "isfl" in self.strategies:
            # the isfl bound diagnostics divide by eta
            raise ValueError("eta must be positive for the isfl strategy")
        for key in ("test_size", "holdout_size", "probe_size"):
            if getattr(self, key) < 1:
                raise ValueError(f"{key} must be >= 1 (got {getattr(self, key)!r})")
        if self.dataset_path is None:
            check_synthetic(self.classes, self.per_class, self.dim, self.separation)

    def check_sampling_ratio(self, ratio: float) -> None:
        """Raise unless ``ratio`` makes a valid trainer config whose epochs
        take at least one sample of a client."""
        samples = self.shard_size * self.shards_per_client
        if not batch_sizes(samples, self.trainer_config(ratio)):
            raise ValueError(
                f"sampling_ratio {ratio!r} takes no sample per epoch of a "
                f"{samples}-sample client"
            )

    def model_spec(self) -> ModelSpec:
        return ModelSpec(
            input_dim=self.dim,
            hidden_dims=tuple(self.hidden_dims),
            n_classes=self.classes,
            activation=self.activation,
        )

    def trainer_config(self, sampling_ratio: float | None = None) -> TrainerConfig:
        return TrainerConfig(
            batch_size=self.batch_size,
            local_epochs=self.local_epochs,
            eta=self.eta,
            sampling_ratio=self.sampling_ratio if sampling_ratio is None else sampling_ratio,
        )

    def federation_config(
        self, strategy: str, seed: int, sampling_ratio: float | None = None
    ) -> FederationConfig:
        return FederationConfig(
            model=self.model_spec(),
            trainer=self.trainer_config(sampling_ratio),
            n_rounds=self.rounds,
            strategy=strategy,
            varpi=self.varpi,
            seed=seed,
        )

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)


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
    part_cfg = PartitionConfig(
        n_clients=cfg.clients,
        shard_size=cfg.shard_size,
        shards_per_client=cfg.shards_per_client,
        nr=cfg.nr,
        seed=derive_seed(seed, 12),
    )
    shards = sort_and_partition(train, part_cfg)
    probe = select_probe_set(
        holdout, min(cfg.probe_size, len(holdout)), seed=derive_seed(seed, 13)
    )
    return shards, probe, test


def run_id_of(payload: dict) -> str:
    canonical = json.dumps(payload, sort_keys=True).encode("utf-8")
    return hashlib.sha256(canonical).hexdigest()[:12]


def write_metrics_csv(metrics: list[RoundMetrics], path: Path) -> None:
    with open(path, "w", encoding="utf-8") as f:
        f.write(METRICS_HEADER + "\n")
        for m in metrics:
            if m.rho_realized is None:
                rho_mean = rho_theory = ""
            else:
                rho_mean, rho_theory = repr(m.rho_realized), repr(m.rho_theory)
            f.write(
                f"{m.round_index},{m.train_loss!r},{m.acc_test!r},"
                f"{m.acc_pool!r},{rho_mean},{rho_theory}\n"
            )


def write_timings_csv(metrics: list[RoundMetrics], path: Path) -> None:
    """Wall seconds per round, in total and per phase (federation.PHASES)."""
    with open(path, "w", encoding="utf-8") as f:
        f.write(",".join(("round", "secs", *PHASES)) + "\n")
        for m in metrics:
            cells = (m.seconds, *(m.phases[phase] for phase in PHASES))
            f.write(f"{m.round_index}," + ",".join(f"{c:.6f}" for c in cells) + "\n")


def execute_run(
    cfg: ExperimentConfig,
    strategy: str,
    seed: int,
    out_dir: Path,
    sampling_ratio: float | None = None,
    opened: tuple | None = None,
) -> list[RoundMetrics]:
    """One federated run; writes metrics, manifest, and diagnostics artifacts.

    ``opened`` is ``(shards, probe, test, opening)`` for this seed and ratio,
    as ``run_task`` builds it; without it the run builds its own.
    """
    shards, probe, test, opening = opened or (*build_experiment_data(cfg, seed), None)
    fed_cfg = cfg.federation_config(strategy, derive_seed(seed, 20), sampling_ratio)
    recorder = diagnostics.RunLog() if strategy == "isfl" else None
    metrics = run(shards, fed_cfg, test, probe=probe, recorder=recorder, opening=opening)

    out_dir.mkdir(parents=True, exist_ok=True)
    manifest = {
        "config": cfg.to_dict(),
        "strategy": strategy,
        "seed": seed,
        "sampling_ratio": sampling_ratio if sampling_ratio is not None else cfg.sampling_ratio,
    }
    manifest["run_id"] = run_id_of(manifest)
    with open(out_dir / "manifest.json", "w", encoding="utf-8") as f:
        json.dump(manifest, f, indent=2, sort_keys=True)
        f.write("\n")
    write_metrics_csv(metrics, out_dir / "metrics.csv")
    write_timings_csv(metrics, out_dir / "timings.csv")
    if recorder is not None and recorder.records:
        recorder.save_jsonl(out_dir / "diagnostics.jsonl")
        rows = diagnostics.bounds_rows(recorder)
        diagnostics.write_bounds_csv(rows, out_dir / "bounds.csv")
        diagnostics.write_long_csv(rows, out_dir / "long.csv")
    return metrics


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


def run_task(jobs: list[tuple]) -> tuple[list[list[RoundMetrics]], Exception | None]:
    """``execute_run(*job)`` for jobs of one (seed, ratio) key in order, all
    from one data build and one opening. Stops at the first failing job and
    returns the finished jobs' metrics with that job's exception (or None)."""
    done = []
    try:
        cfg, strategy, seed, _, *ratio = jobs[0]
        data = build_experiment_data(cfg, seed)
        fed_cfg = cfg.federation_config(strategy, derive_seed(seed, 20), *ratio)
        opened = (*data, open_run(data[0], fed_cfg, data[2]))
        for job in jobs:
            done.append(execute_run(*job, opened=opened))
    except Exception as exc:  # the worker's boundary: run_jobs raises it in job order
        return done, exc
    return done, None


def run_jobs(jobs: list[tuple]) -> list[list[RoundMetrics]]:
    """``execute_run(*job)`` for every job, in worker processes; results in job order.

    One worker per usable CPU, at most one per job, and the tasks of
    ``group_jobs``. Workers are forked where the platform offers it: a
    spawned worker re-imports numpy, about 0.1-0.2 s, which a desk-scale job
    cannot repay. The executor forks every worker before it starts its
    management thread (Python 3.11), so no fork copies a thread of its own.
    The first job to fail, in job order, raises its exception here; the
    later jobs of its task and tasks not yet started do not run.
    """
    # imported here: ``from isfl import cli`` stays as cheap as before
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    workers = min(len(jobs), usable_cpus())
    tasks = group_jobs([(job[2], *job[4:]) for job in jobs], workers)
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
            done, failure = future.result()
            if i == len(done):
                raise failure
            results.append(done[i])
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
        (cfg, strategy, seed, out_dir / f"{strategy}_seed{seed}")
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
    for key in ("p", "p_k", "L"):
        if key not in raw:
            raise ValueError(f"solve input is missing key {key!r}")
    p = CategoryDistribution(np.asarray(raw["p"], dtype=np.float64))
    p_k = CategoryDistribution(np.asarray(raw["p_k"], dtype=np.float64))
    l_row = np.asarray(raw["L"], dtype=np.float64)
    varpi = float(raw.get("varpi", 0.05))
    plan = solve_is_weights(p, p_k, l_row, varpi)
    alpha = compute_alpha(l_row)
    out = {
        "alpha": alpha.tolist(),
        "gamma_star": compute_gamma_star(p, p_k, alpha, varpi),
        "q": plan.q.probs.tolist(),
        "w": plan.w.tolist(),
        "rho": rho(plan.q, p, l_row),
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
        [(cfg, s, d, out_dir / f"{s}_sr{r}_seed{d}", r) for s, r, d in keys]
    )
    rows = [
        (*key, metrics[-1].acc_test, metrics[-1].acc_pool)
        for key, metrics in zip(keys, finished)
    ]
    with open(out_dir / "sweep_sr.csv", "w", encoding="utf-8") as f:
        f.write("strategy,sr,seed,acc_S,acc_G\n")
        for strategy, ratio, seed, acc_s, acc_g in rows:
            f.write(f"{strategy},{ratio!r},{seed},{acc_s!r},{acc_g!r}\n")
    print(f"wrote {out_dir / 'sweep_sr.csv'}")
    for strategy in cfg.strategies:
        for ratio in ratios:
            accs = [r[4] for r in rows if r[0] == strategy and r[1] == ratio]
            print(f"{strategy:<15} SR={ratio:<5} acc_G mean {np.mean(accs):.4f}")
    return 0


def cmd_bounds(args) -> int:
    run_dir = Path(args.run_dir)
    rows = diagnostics.bounds_rows(diagnostics.RunLog.load_jsonl(run_dir / "diagnostics.jsonl"))
    diagnostics.write_bounds_csv(rows, run_dir / "bounds.csv")
    diagnostics.write_long_csv(rows, run_dir / "long.csv")
    print(f"wrote {run_dir / 'bounds.csv'} and {run_dir / 'long.csv'}")
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
    except CapacityError as exc:
        print(f"capacity error: {exc}", file=sys.stderr)
        return 3
    except (ValueError, json.JSONDecodeError, TypeError) as exc:
        source = {"bounds": "run log", "solve": "input"}.get(args.command, "config")
        print(f"{source} error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

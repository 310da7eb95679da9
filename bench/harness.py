"""Benchmark of ``isfl run`` on workloads that each load a different layer.

Run it through ``bench/run.py`` from the repository root.

Every ``isfl run`` goes through ``isfl.cli.main`` in this process, one call
at a time (a closed loop with a single caller), with ``ISFL_THREADS`` unset so
the (strategy, seed) jobs run in sequence, the documented default.

``--trace 0`` repeats the workload a fixed number of times, as many as fit
in ``--seconds`` on the reference machine and at least two, then reports the
end-to-end metrics: the median wall time of one run, the median set-up time
over fresh processes, the peak resident memory of this process and the final
pooled accuracy of the workload's two strategies.
``--trace 1`` runs the workload traced (see ``spans.py``) between two
untraced runs and reports per-layer calls, self time and counts, plus the
weight solver's time at 5, 10 and 16 categories.

Both modes check every artifact and count each missed check as a failed
operation. Both also run the README's default config once, with one round,
and count its exit code. The last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import gc
import hashlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

import spans

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = BENCH_DIR / "_work"

# Each workload runs isfl beside one baseline strategy and loads its own
# layer; the reasons and the measured shares are in baseline.json.
WORKLOADS = {
    # many batch-16 SGD steps: the trainer and model hot path
    "trend-desk": {
        "classes": 5, "per_class": 800, "dim": 20, "separation": 1.2,
        "clients": 10, "shard_size": 100, "shards_per_client": 2, "nr": 0.9,
        "hidden_dims": [16], "batch_size": 16, "local_epochs": 5, "eta": 0.15,
        "rounds": 5, "strategies": ["fedavg", "isfl"],
        "probe_size": 500, "holdout_size": 500, "test_size": 1000,
    },
    # README defaults made feasible: C=10 over 20 clients loads the solver
    "paper-scale": {"per_class": 2200, "eta": 0.05, "rounds": 3},
    # P of about 4.5k over a 1000-sample probe: the N x P curvature rows
    "wide-probe": {
        "classes": 5, "per_class": 1600, "dim": 64, "hidden_dims": [64],
        "clients": 10, "shard_size": 250, "shards_per_client": 2,
        "probe_size": 1000, "holdout_size": 1000, "test_size": 1000,
        "batch_size": 128, "sampling_ratio": 0.5, "eta": 0.05, "rounds": 3,
        "strategies": ["isfl", "gradnorm_is"],
    },
}

MIN_REPEATS = 2          # the byte-identity check needs two runs
# Seconds of one untraced repeat on the reference machine (baseline.json).
# The repeat count comes from these, not from the clock, so every run of a
# workload attempts the same operations however loaded the machine is.
REPEAT_S = {"trend-desk": 6.0, "paper-scale": 14.0, "wide-probe": 8.0}
SETUP_REPEATS = 7
# Final accuracy differs by about 15% between data seeds, so every run
# trains on two and reports their mean.
DATA_SEEDS = 2
SOLVER_CALLS = {5: 50, 10: 10, 16: 2}   # C=16 costs seconds per call
SOLVER_VARPI = 0.05

SETUP_CODE = """\
import sys, time
t0 = time.perf_counter()
from isfl import cli
cfg = cli.ExperimentConfig.from_file(sys.argv[1])
cli.build_experiment_data(cfg, cfg.seeds[0])
print(time.perf_counter() - t0)
"""


class Ledger:
    """Operations attempted and failed.

    An output check that misses is a failed operation and also makes the
    result incorrect; an operation that exits non-zero only counts as failed.
    """

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.correct = True

    def operation(self, what: str, ok: bool) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"FAILED: {what}", file=sys.stderr)
        return ok

    def check(self, what: str, ok: bool) -> bool:
        self.correct &= bool(ok)
        return self.operation(what, ok)


def _sha256(path: Path) -> str | None:
    return hashlib.sha256(path.read_bytes()).hexdigest() if path.is_file() else None


def artifact_digests(run_root: Path) -> dict[str, str]:
    """sha256 of every artifact under ``run_root`` except the wall-clock timings."""
    return {
        path.relative_to(run_root).as_posix(): _sha256(path)
        for path in sorted(run_root.rglob("*"))
        if path.is_file() and path.name != "timings.csv"
    }


def metrics_finite(path: Path) -> bool:
    """True when ``path`` has at least one round and every cell is finite.

    Blank cells are no value: non-isfl strategies leave the rho columns empty.
    """
    if not path.is_file():
        return False
    with open(path, newline="", encoding="utf-8") as f:
        rows = list(csv.reader(f))[1:]
    if not rows:
        return False
    for cell in (c for row in rows for c in row if c != ""):
        try:
            if not math.isfinite(float(cell)):
                return False
        except ValueError:
            return False
    return True


def final_acc_g(path: Path) -> float:
    with open(path, newline="", encoding="utf-8") as f:
        rows = list(csv.DictReader(f))
    return float(rows[-1]["acc_G"])


def check_outputs(
    ledger: Ledger,
    run_root: Path,
    run_dirs: list[str],
    reference: dict[str, str] | None,
) -> dict[str, str]:
    """Check one ``isfl run``'s artifacts and return their digests.

    The metrics.csv of every run directory must hold only finite values, and
    with a ``reference`` every artifact must match it byte for byte; each
    miss is one failure.
    """
    found = artifact_digests(run_root)
    for run_dir in run_dirs:
        rel = f"{run_dir}/metrics.csv"
        ledger.check(f"{rel} values finite", metrics_finite(run_root / rel))
    if reference is not None:
        for rel in sorted(reference.keys() | found.keys()):
            ledger.check(f"{rel} identical across runs", reference.get(rel) == found.get(rel))
    return found


def check_bounds(ledger: Ledger, main, run_dir: Path) -> None:
    """``isfl bounds`` on a finished isfl run must rewrite the same bytes."""
    names = ("bounds.csv", "long.csv")
    before = {name: _sha256(run_dir / name) for name in names}
    with contextlib.redirect_stdout(io.StringIO()):
        rc = main(["bounds", "--run-dir", str(run_dir)])
    ledger.operation(f"isfl bounds --run-dir {run_dir.name}", rc == 0)
    for name in names:
        ledger.check(
            f"{run_dir.name}/{name} reproduced by isfl bounds",
            before[name] is not None and before[name] == _sha256(run_dir / name),
        )


def run_once(cli, config_path: Path, out_dir: Path) -> tuple[int, float]:
    """One ``isfl run``; returns its exit code and wall seconds."""
    gc.collect()
    with contextlib.redirect_stdout(io.StringIO()):
        t0 = time.perf_counter()
        rc = cli.main(["run", "--config", str(config_path), "--out", str(out_dir)])
        seconds = time.perf_counter() - t0
    return rc, seconds


def run_dirs(cfg) -> list[str]:
    return [f"{s}_seed{d}" for s in cfg.strategies for d in cfg.seeds]


def check_run(ledger, cli, cfg, out_dir, rc, reference, label) -> dict[str, str]:
    """All checks on one ``isfl run``; prints its metrics.csv digests."""
    ledger.operation(f"isfl run ({label})", rc == 0)
    found = check_outputs(ledger, out_dir, run_dirs(cfg), reference)
    if "isfl" in cfg.strategies:
        for d in cfg.seeds:
            check_bounds(ledger, cli.main, out_dir / f"isfl_seed{d}")
    digests = "  ".join(f"{r}={found.get(f'{r}/metrics.csv', 'missing')[:16]}" for r in run_dirs(cfg))
    print(f"{label}: metrics.csv sha256 {digests}")
    return found


def measure_setup(ledger: Ledger, config_path: Path, count: int) -> list[float]:
    """Import isfl and build the workload's first data seed in fresh processes."""
    env = {k: v for k, v in os.environ.items() if k != "ISFL_THREADS"}
    env["PYTHONPATH"] = str(SRC)
    times = []
    for i in range(count):
        proc = subprocess.run(
            [sys.executable, "-c", SETUP_CODE, str(config_path)],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
        )
        if ledger.operation("set-up process", proc.returncode == 0):
            times.append(float(proc.stdout.split()[-1]))
        else:
            print(proc.stderr, file=sys.stderr)
    return times


def baseline_of(strategies: list[str]) -> str:
    return next(s for s in strategies if s != "isfl")


def final_accs(out_dir: Path, cfg) -> dict[str, float]:
    """Final pooled accuracy per strategy, averaged over the data seeds."""
    return {
        s: statistics.fmean(final_acc_g(out_dir / f"{s}_seed{d}" / "metrics.csv") for d in cfg.seeds)
        for s in cfg.strategies
    }


def repeats_for(workload: str, seconds: float) -> int:
    return max(MIN_REPEATS, int(seconds // REPEAT_S[workload]))


def measure_end_to_end(ledger, cli, cfg, repeats, config_path, work) -> dict:
    times, setups, reference = [], [], None
    for i in range(repeats):
        label = f"repeat {i}"
        out_dir = work / label.replace(" ", "")
        rc, secs = run_once(cli, config_path, out_dir)
        found = check_run(ledger, cli, cfg, out_dir, rc, reference, label)
        if reference is None:
            reference = found
            accs = final_accs(out_dir, cfg)
        times.append(secs)
        shutil.rmtree(out_dir)
        # spread over the run, set-up samples the same machine load as the repeats
        setups += measure_setup(ledger, config_path, 1)
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    setups += measure_setup(ledger, config_path, SETUP_REPEATS - len(setups))
    print(f"run_s over {len(times)} runs: " + " ".join(f"{t:.4f}" for t in times))
    print(f"setup_s over {len(setups)} processes: " + " ".join(f"{t:.4f}" for t in setups))
    for s, acc in accs.items():
        print(f"acc_G.{s} = {acc!r} (mean over data seeds {cfg.seeds})")
    return {
        "run_s": (statistics.median(times), "s"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (peak_mb, "MB"),
        "acc_G.isfl": (accs["isfl"], "fraction"),
        "acc_G.baseline": (accs[baseline_of(cfg.strategies)], "fraction"),
    }


# --------------------------------------------------------------------------
# traced run

def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _count_grad_bytes(tracer, args, kwargs, result, seconds):
    tracer.counts["model.per_sample_grads.bytes"] += result.nbytes


def _count_sgd_step(tracer, args, kwargs, result, seconds):
    if tracer.current() == "trainer.local_train":
        tracer.counts["trainer.sgd_steps"] += 1


def _count_samples(tracer, args, kwargs, result, seconds):
    if tracer.current() == "trainer.local_train":
        tracer.counts["trainer.samples"] += len(_arg(args, kwargs, 2, "batch"))


def _count_zero_deviation(tracer, exc):
    from isfl.lipschitz import ZeroDeviationError

    if isinstance(exc, ZeroDeviationError):
        tracer.counts["lipschitz.zero_deviation"] += 1


def _count_clamped(tracer, args, kwargs, result, seconds):
    tracer.counts["isweights.clamped"] += bool(result.clamped)


def _count_written(tracer, args, kwargs, result, seconds):
    tracer.counts["diagnostics.bytes_written"] += os.path.getsize(_arg(args, kwargs, 1, "path"))


def _time_strategy(tracer, args, kwargs, result, seconds):
    cfg = _arg(args, kwargs, 1, "cfg")
    tracer.counts[f"federation.run.wall_s.{cfg.strategy}"] += seconds
    tracer.counts[f"federation.rounds.{cfg.strategy}"] += cfg.n_rounds


T = spans.Target
TRACED = [
    T("isfl.data", "generate_synthetic"),
    T("isfl.data", "train_holdout_test_split"),
    T("isfl.data", "sort_and_partition"),
    T("isfl.data", "select_probe_set"),
    T("isfl.model", "backward_grad", on_return=_count_samples),
    T("isfl.model", "sgd_step", on_return=_count_sgd_step),
    T("isfl.model", "evaluate"),
    T("isfl.model", "per_sample_grads", on_return=_count_grad_bytes),
    T("isfl.model", "per_sample_grad_norms"),
    T("isfl.trainer", "local_train"),
    T("isfl.trainer", "weighted_sample_batch"),
    T("isfl.trainer", "gradnorm_plan"),
    T("isfl.lipschitz", "estimate_lipschitz", on_raise=_count_zero_deviation),
    T("isfl.lipschitz", "estimate_sgd_stats"),
    T("isfl.isweights", "solve_is_weights", on_return=_count_clamped),
    T("isfl.isweights", "rho"),
    T("isfl.federation", "run", on_return=_time_strategy),
    T("isfl.federation", "aggregate"),
    T("isfl.diagnostics", "RunLog.save_jsonl", on_return=_count_written),
    T("isfl.diagnostics", "write_bounds_csv", on_return=_count_written),
    T("isfl.diagnostics", "write_long_csv", on_return=_count_written),
    T("isfl.diagnostics", "RunLog.load_jsonl"),
    T("isfl.diagnostics", "bounds_rows"),
    T("isfl.cli", "main"),
    T("isfl.cli", "execute_run"),
    T("isfl.cli", "build_experiment_data"),
]
LAYERS = ["data", "model", "trainer", "lipschitz", "isweights", "federation", "diagnostics", "cli"]
COUNTS = {
    "model.per_sample_grads.bytes": "B",
    "trainer.sgd_steps": "count",
    "trainer.samples": "count",
    "lipschitz.zero_deviation": "count",
    "isweights.clamped": "count",
    "diagnostics.bytes_written": "B",
}
# Spans that only the named strategy calls; every other span fires on every run.
_ISFL_ONLY = (
    "model.per_sample_grads", "lipschitz.estimate_lipschitz", "lipschitz.estimate_sgd_stats",
    "isweights.solve_is_weights", "isweights.rho", "diagnostics.RunLog.save_jsonl",
    "diagnostics.write_bounds_csv", "diagnostics.write_long_csv",
    "diagnostics.RunLog.load_jsonl", "diagnostics.bounds_rows",
)
REQUIRES = {
    **{name: "isfl" for name in _ISFL_ONLY},
    "trainer.gradnorm_plan": "gradnorm_is",
    "model.per_sample_grad_norms": "gradnorm_is",
}


def missing_spans(calls: dict[str, int], not_found: list[str], strategies: list[str]) -> list[str]:
    """Traced names that the workload's strategies call but that never fired."""
    expected = [t.name for t in TRACED if REQUIRES.get(t.name) in (None, *strategies)]
    return [name for name in expected if name in not_found or calls.get(name, 0) == 0]


def solver_rows(seed: int) -> dict[int, float]:
    """Median milliseconds of one weight solve on a seeded feasible instance."""
    from isfl.data import CategoryDistribution
    from isfl.isweights import solve_is_weights

    rng = np.random.default_rng(seed)
    rows = {}
    for c, calls in SOLVER_CALLS.items():
        p = rng.uniform(0.5, 1.5, c)
        p_k = rng.uniform(0.1, 2.0, c)
        args = (
            CategoryDistribution(p / p.sum()),
            CategoryDistribution(p_k / p_k.sum()),
            rng.uniform(0.5, 2.0, c),
            SOLVER_VARPI,
        )
        times = []
        for _ in range(calls):
            t0 = time.perf_counter()
            solve_is_weights(*args)
            times.append(time.perf_counter() - t0)
        rows[c] = 1000.0 * statistics.median(times)
    return rows


def measure_layers(ledger, cli, cfg, repeats, config_path, work) -> dict:
    """One traced run between two untraced ones; ``repeats`` is not used."""
    rc, before_s = run_once(cli, config_path, work / "before")
    reference = check_run(ledger, cli, cfg, work / "before", rc, None, "untraced")

    run_tracer, bounds_tracer = spans.Tracer(), spans.Tracer()
    with spans.installed(run_tracer, TRACED, "isfl") as not_found:
        rc, traced_s = run_once(cli, config_path, work / "traced")
    ledger.operation("isfl run (traced)", rc == 0)
    # tracing must not change a single artifact
    check_outputs(ledger, work / "traced", run_dirs(cfg), reference)
    if "isfl" in cfg.strategies:
        with spans.installed(bounds_tracer, TRACED, "isfl"):
            for d in cfg.seeds:
                check_bounds(ledger, cli.main, work / "traced" / f"isfl_seed{d}")
    rc, after_s = run_once(cli, config_path, work / "after")
    check_run(ledger, cli, cfg, work / "after", rc, reference, "untraced again")
    # the untraced runs bracket the traced one, so drift in machine speed cancels
    plain_s = (before_s + after_s) / 2
    solve_ms = solver_rows(cfg.seeds[0])

    run_names, run_layers = spans.summarize(run_tracer)
    bounds_names, bounds_layers = spans.summarize(bounds_tracer)

    def total(stats_a, stats_b, key, field):
        return sum(getattr(s[key], field) for s in (stats_a, stats_b) if key in s)

    counts = {**run_tracer.counts}
    for key, value in bounds_tracer.counts.items():
        counts[key] = counts.get(key, 0.0) + value
    calls = {t.name: total(run_names, bounds_names, t.name, "calls") for t in TRACED}
    missing = missing_spans(calls, not_found, cfg.strategies)

    metrics = {}
    print(f"{'span':<36} {'calls':>9} {'self_s':>10} {'wall_s':>10}")
    for t in TRACED:
        self_s = total(run_names, bounds_names, t.name, "self_s")
        wall_s = total(run_names, bounds_names, t.name, "wall_s")
        metrics[f"{t.name}.calls"] = (calls[t.name], "count")
        metrics[f"{t.name}.self_s"] = (self_s, "s")
        if t.name in missing:
            print(f"{t.name:<36} {'missing':>9}")
        elif calls[t.name] == 0:
            print(f"{t.name:<36} {'not run':>9}  (needs {REQUIRES[t.name]})")
        else:
            print(f"{t.name:<36} {calls[t.name]:>9} {self_s:>10.4f} {wall_s:>10.4f}")
    for key, unit in COUNTS.items():
        metrics[key] = (counts.get(key, 0.0), unit)
    for role, strategy in (("isfl", "isfl"), ("baseline", baseline_of(cfg.strategies))):
        wall = counts.get(f"federation.run.wall_s.{strategy}", 0.0)
        rounds = counts.get(f"federation.rounds.{strategy}", 0.0)
        metrics[f"federation.run.wall_s.{role}"] = (wall, "s")
        metrics[f"federation.round_s.{role}"] = (wall / rounds if rounds else 0.0, "s")
    print(f"\n{'layer':<12} {'self_s':>10} {'wall % of traced run':>22}")
    for layer in LAYERS:
        self_s = total(run_layers, bounds_layers, layer, "self_s")
        share = 100.0 * run_layers[layer].wall_s / traced_s if layer in run_layers else 0.0
        metrics[f"layer.{layer}.self_s"] = (self_s, "s")
        metrics[f"layer.{layer}.wall_share"] = (share, "%")
        print(f"{layer:<12} {self_s:>10.4f} {share:>21.1f}%")
    local = run_names.get("trainer.local_train")
    metrics["trainer.local_train.wall_share"] = (
        100.0 * local.wall_s / traced_s if local else 0.0, "%"
    )
    for c, ms in solve_ms.items():
        metrics[f"isweights.solve_ms.c{c}"] = (ms, "ms")
    metrics["trace.overhead_s"] = (traced_s - plain_s, "s")
    metrics["trace.spans"] = (len(run_tracer) + len(bounds_tracer), "count")
    metrics["trace.missing_spans"] = (len(missing), "count")
    print(
        f"\nrun_s untraced {before_s:.4f} and {after_s:.4f}, traced {traced_s:.4f}; "
        f"strategies {' '.join(cfg.strategies)}  (baseline = {baseline_of(cfg.strategies)})"
    )
    for key in [*COUNTS, *(k for k in metrics if k.startswith(("federation.r", "isweights.solve_ms", "trainer.local_train.w")))]:
        print(f"{key} = {metrics[key][0]:.6g} {metrics[key][1]}")
    for name in missing:
        print(f"missing span: {name}", file=sys.stderr)
    return metrics


def readme_defaults(ledger: Ledger, cli, work: Path, seed: int) -> None:
    """The README's default config, only ``rounds`` lowered to 1.

    ExperimentConfig's defaults are the ones the README documents, so the
    config file names nothing else.
    """
    path = work / "readme_defaults.json"
    path.write_text(json.dumps({"rounds": 1}), encoding="utf-8")
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        rc = cli.main(["run", "--config", str(path), "--out", str(work / "readme"), "--seed", str(seed)])
    print(f"readme-defaults (rounds=1): exit {rc} {err.getvalue().strip()}")
    ledger.operation("README default config runs", rc == 0)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "isfl" / "__init__.py").is_file():
        print(f"no isfl sources under {SRC}", file=sys.stderr)
        return 2
    os.environ.pop("ISFL_THREADS", None)
    sys.path.insert(0, str(SRC))
    from isfl import cli

    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        print(f"imported isfl from {cli.__file__}, not from {SRC}", file=sys.stderr)
        return 2

    print(
        f"workload {args.workload} seed {args.seed} seconds {args.seconds} trace {args.trace}; "
        f"python {platform.python_version()} numpy {np.__version__} cpus {os.cpu_count()}"
    )
    WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(dir=WORK))
    ledger = Ledger()
    try:
        config_path = work / "config.json"
        data_seeds = [DATA_SEEDS * args.seed + i for i in range(DATA_SEEDS)]
        config_path.write_text(
            json.dumps({**WORKLOADS[args.workload], "seeds": data_seeds}), encoding="utf-8"
        )
        cfg = cli.ExperimentConfig.from_file(config_path)
        measure = measure_layers if args.trace else measure_end_to_end
        repeats = repeats_for(args.workload, args.seconds)
        metrics = measure(ledger, cli, cfg, repeats, config_path, work)
        readme_defaults(ledger, cli, work, args.seed)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()

    if not args.trace:
        for name, (value, unit) in metrics.items():
            print(f"{name:<16} {value:>14.6f} {unit}")
    print(f"operations: {ledger.attempted} attempted, {ledger.failed} failed; correct {ledger.correct}")
    result = {
        "correct": ledger.correct,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result, allow_nan=False))
    return 0

"""Output checks: each corrupted artifact or non-finite metric is a failed operation."""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from harness import Ledger, check_bounds, check_outputs, metrics_finite, repeats_for  # noqa: E402

HEADER = "round,loss,acc_S,acc_G,rho_mean,rho_theory\n"


def write_run(root: Path, fedavg_rows: str, isfl_rows: str, timing: str = "0.1") -> Path:
    for strategy, rows in (("fedavg", fedavg_rows), ("isfl", isfl_rows)):
        run_dir = root / f"{strategy}_seed3"
        run_dir.mkdir(parents=True)
        (run_dir / "metrics.csv").write_text(HEADER + rows)
        (run_dir / "manifest.json").write_text('{"strategy": "%s"}\n' % strategy)
        (run_dir / "timings.csv").write_text(f"round,secs\n1,{timing}\n")
    (root / "isfl_seed3" / "bounds.csv").write_text("round,psi\n1,0.5\n")
    return root


FEDAVG = "1,0.9,0.5,0.55,,\n"
ISFL = "1,0.8,0.6,0.65,1.2,1.1\n"
RUN_DIRS = ["fedavg_seed3", "isfl_seed3"]


def test_identical_runs_pass_and_timings_are_ignored(tmp_path):
    ledger = Ledger()
    ref = check_outputs(ledger, write_run(tmp_path / "r0", FEDAVG, ISFL), RUN_DIRS, None)
    assert "fedavg_seed3/timings.csv" not in ref
    check_outputs(ledger, write_run(tmp_path / "r1", FEDAVG, ISFL, "0.2"), RUN_DIRS, ref)
    assert (ledger.attempted, ledger.failed, ledger.correct) == (2 + 2 + len(ref), 0, True)


def test_corrupted_artifact_counts_as_failed_operation(tmp_path):
    ledger = Ledger()
    ref = check_outputs(ledger, write_run(tmp_path / "r0", FEDAVG, ISFL), RUN_DIRS, None)
    bad = write_run(tmp_path / "r1", FEDAVG, ISFL)
    (bad / "isfl_seed3" / "bounds.csv").write_text("round,psi\n1,0.6\n")
    (bad / "fedavg_seed3" / "manifest.json").unlink()
    check_outputs(ledger, bad, RUN_DIRS, ref)
    assert ledger.failed == 2
    assert not ledger.correct


def test_non_finite_metric_counts_as_failed_operation(tmp_path):
    ledger = Ledger()
    root = write_run(tmp_path / "r0", FEDAVG, "1,nan,0.6,0.65,1.2,1.1\n")
    check_outputs(ledger, root, RUN_DIRS, None)
    assert (ledger.attempted, ledger.failed, ledger.correct) == (2, 1, False)


def test_metrics_finite_rejects_inf_text_missing_file_and_no_rounds(tmp_path):
    path = tmp_path / "metrics.csv"
    assert not metrics_finite(path)
    path.write_text(HEADER)
    assert not metrics_finite(path)
    path.write_text(HEADER + FEDAVG)
    assert metrics_finite(path)
    for row in ("1,inf,0.5,0.5,,\n", "1,0.9,x,0.5,,\n", "1,0.9,0.5,-inf,1,1\n"):
        path.write_text(HEADER + FEDAVG + row)
        assert not metrics_finite(path)


def test_bounds_that_rewrite_other_bytes_fail(tmp_path):
    run_dir = write_run(tmp_path, FEDAVG, ISFL) / "isfl_seed3"
    (run_dir / "long.csv").write_text("round,series,client,value\n")

    def faithful(argv):
        return 0

    def drifting(argv):
        (Path(argv[-1]) / "long.csv").write_text("round,series,client,value\n1,psi,,0.5\n")
        return 0

    ledger = Ledger()
    check_bounds(ledger, faithful, run_dir)
    assert (ledger.attempted, ledger.failed, ledger.correct) == (3, 0, True)
    check_bounds(ledger, drifting, run_dir)
    assert (ledger.attempted, ledger.failed, ledger.correct) == (6, 1, False)


def test_failed_operation_alone_keeps_outputs_correct():
    ledger = Ledger()
    ledger.operation("README default config runs", False)
    assert (ledger.attempted, ledger.failed, ledger.correct) == (1, 1, True)


def test_repeat_count_depends_on_seconds_only():
    # a fixed count keeps the operations attempted the same on every run
    assert [repeats_for(w, 40) for w in ("trend-desk", "paper-scale", "wide-probe")] == [6, 2, 5]
    assert repeats_for("paper-scale", 1) == 2

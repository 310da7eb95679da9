import hashlib
import io
import json
import logging
import os
import statistics
import struct
import subprocess
import sys
import time
import tracemalloc
import warnings

import numpy as np
import pytest

import isfl.cli as cli_mod
import isfl.federation as federation_mod
from isfl.cli import ExperimentConfig, build_experiment_data, main
from isfl.data import DATASET_MAGIC, generate_synthetic
from isfl.federation import RoundFailure
from oracles import save_dataset
from test_model import BLAS_THREADS

BASE_CONFIG = {
    "classes": 3,
    "per_class": 80,
    "dim": 4,
    "separation": 2.0,
    "test_size": 30,
    "holdout_size": 30,
    "clients": 2,
    "shard_size": 20,
    "shards_per_client": 2,
    "nr": 0.8,
    "hidden_dims": [4],
    "batch_size": 16,
    "local_epochs": 2,
    "eta": 0.05,
    "rounds": 2,
    "strategies": ["fedavg"],
    "varpi": 0.05,
    "probe_size": 20,
    "seeds": [1],
}


def force_workers(monkeypatch, workers):
    """Group the jobs of ``run_jobs`` as on ``workers`` workers, whatever the
    CPU count: 1 groups every key, and as many as jobs groups none."""
    real = cli_mod.group_jobs
    monkeypatch.setattr(
        cli_mod, "group_jobs", lambda keys, _: real(keys, workers or len(keys))
    )


def write_config(tmp_path, **overrides):
    cfg = dict(BASE_CONFIG)
    cfg.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return path


# sha256 of the standard output of ``isfl solve`` on three instances: the
# worked one, one whose first floor exceeds its pooled proportion and is
# clamped, and one whose client lacks the third category
SOLVE_PROBLEMS = {
    "worked": ({"p": [0.5, 0.3, 0.2], "p_k": [0.8, 0.1, 0.1], "L": [1.0, 2.0, 3.0],
                "varpi": 0.05},
               "49ba6302d0603cb7c965278b8991a4e1136d8e6290f3cbff9bb3ad27aaa4b648"),
    "clamped": ({"p": [0.001, 0.499, 0.5], "p_k": [0.9, 0.05, 0.05], "L": [1.0, 2.0, 3.0],
                 "varpi": 0.05},
                "dee4b24e35597e3003dfe42ac56304f23b26342a231431d8ca72de7b4ac2fbff"),
    "off-support": ({"p": [0.5, 0.3, 0.2], "p_k": [0.7, 0.3, 0.0], "L": [1.0, 1.1, 1.2],
                     "varpi": 0.05},
                    "24dfe51948e887a3921ab0d0902ba0b217052fede28e3784499886ca1106ae6e"),
}


class TestSolveCommand:
    @pytest.mark.parametrize("name", SOLVE_PROBLEMS)
    def test_stdout_bytes_and_one_clamp_warning(self, tmp_path, capsys, caplog, name):
        problem, digest = SOLVE_PROBLEMS[name]
        path = tmp_path / "problem.json"
        path.write_text(json.dumps(problem))
        with caplog.at_level(logging.WARNING):
            assert main(["solve", "--input", str(path)]) == 0
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == digest
        clamps = [r for r in caplog.records if "clamping" in r.getMessage()]
        assert len(clamps) == (name == "clamped")

    def test_stdin_input_and_out_file_hold_the_stdout_bytes(self, tmp_path, capsys, monkeypatch):
        problem, digest = SOLVE_PROBLEMS["worked"]
        monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(problem)))
        out_path = tmp_path / "solution.json"
        assert main(["solve", "--input", "-", "--out", str(out_path)]) == 0
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == digest
        assert out_path.read_bytes() == out.encode()

    def test_worked_instance(self, tmp_path, capsys):
        problem = tmp_path / "problem.json"
        problem.write_text(
            json.dumps({"p": [0.5, 0.3, 0.2], "p_k": [0.8, 0.1, 0.1],
                        "L": [1.0, 2.0, 3.0], "varpi": 0.05})
        )
        assert main(["solve", "--input", str(problem)]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["gamma_star"] == pytest.approx(0.2572, abs=1e-4)
        assert sum(out["q"]) == pytest.approx(1.0, abs=1e-9)
        assert out["q"][2] == pytest.approx(0.005, abs=1e-12)
        assert out["rho"] > 0
        assert np.allclose(out["alpha"], [0.6415, 0.1166, -0.7582], atol=1e-4)

    def test_degenerate_curvatures(self, tmp_path, capsys):
        problem = tmp_path / "problem.json"
        problem.write_text(
            json.dumps({"p": [0.5, 0.3, 0.2], "p_k": [0.8, 0.1, 0.1],
                        "L": [2.0, 2.0, 2.0]})
        )
        assert main(["solve", "--input", str(problem)]) == 0
        out = json.loads(capsys.readouterr().out)
        assert np.allclose(out["q"], [0.5, 0.3, 0.2], atol=1e-12)
        assert np.allclose(out["w"], [0.625, 3.0, 2.0], atol=1e-12)

    def test_malformed_json_exits_1(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["solve", "--input", str(bad)]) == 1

    def test_missing_key_exits_1(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"p": [1.0]}))
        assert main(["solve", "--input", str(bad)]) == 1

    @pytest.mark.parametrize("change, message", [
        ({"varpi": False}, "varpi must be a number (got False)"),
        ({"varpi": "0.1"}, "varpi must be a number (got '0.1')"),
        ({"L": [True, 2.0]}, "L must be a list of numbers (got [True, 2.0])"),
        ({"p_k": [0.5, "0.5"]}, "p_k must be a list of numbers (got [0.5, '0.5'])"),
        ({"p": 1.0}, "p must be a list of numbers (got 1.0)"),
        ({"extra": 1}, "unknown solve input keys: ['extra']"),
        ({"varpy": 0.1}, "unknown solve input keys: ['varpy']"),
        ("pp_kL", "solve input must be a JSON object (got str)"),
        ({"L": [10**400, 2.0]}, "L: int too large to convert to float"),
        ({"p": [0.5, 0.6]}, "p: probs must sum to 1 (got 1.1)"),
        ({"p_k": [0.5, 0.6]}, "p_k: probs must sum to 1 (got 1.1)"),
        ({"p": []}, "p: probs must be a non-empty 1-D vector"),
        ({"p_k": [1.5, -0.5]}, "p_k: probs must be non-negative"),
        ({"p_k": [0.5, 0.25, 0.25]}, "p_k has 3 categories but p has 2"),
        ({"varpi": 1.5}, "varpi must lie in [0, 1)"),
    ], ids=["bool-varpi", "string-varpi", "bool-L", "string-p_k", "number-p",
            "unknown-key", "misspelt-key", "not-an-object", "int-overflow-L", "sum-p",
            "sum-p_k", "empty-p", "negative-p_k", "length-p_k", "varpi-1.5"])
    def test_malformed_input_exits_1_naming_the_key(self, tmp_path, capsys, change, message):
        problem = {"p": [0.5, 0.5], "p_k": [0.5, 0.5], "L": [1.0, 2.0]}
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(problem | change if isinstance(change, dict) else change))
        assert main(["solve", "--input", str(bad)]) == 1
        out, err = capsys.readouterr()
        assert out == "" and err == f"input error: {message}\n"

    def test_bad_input_labelled_an_input_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"p": [0.5, 0.6], "p_k": [0.5, 0.5], "L": [1.0, 2.0]}))
        assert main(["solve", "--input", str(bad)]) == 1
        assert capsys.readouterr().err == "input error: p: probs must sum to 1 (got 1.1)\n"

    def test_overflowing_penalty_exits_1(self, tmp_path, capsys):
        # the plan does not depend on the row's scale, but rho of this row is inf
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"p": [0.5, 0.5], "p_k": [0.9, 0.1], "L": [1e200, 1.0]}))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["solve", "--input", str(bad)]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("input error: the penalty rho") and err.count("\n") == 1

    def test_curvatures_whose_squares_underflow_solve(self, tmp_path, capsys):
        problem = tmp_path / "problem.json"
        problem.write_text(
            json.dumps({"p": [0.5, 0.5], "p_k": [0.9, 0.1], "L": [1e-170, 1e-170]})
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["solve", "--input", str(problem)]) == 0
        assert json.loads(capsys.readouterr().out)["q"] == [0.5, 0.5]

    def test_missing_file_exits_2(self):
        assert main(["solve", "--input", "/nonexistent/problem.json"]) == 2

    def test_hundred_categories_under_a_second(self, tmp_path, capsys):
        rng = np.random.default_rng(100)
        problem = tmp_path / "problem.json"
        problem.write_text(
            json.dumps({"p": rng.dirichlet(np.full(100, 2.0)).tolist(),
                        "p_k": rng.dirichlet(np.ones(100)).tolist(),
                        "L": rng.uniform(0.05, 3.0, 100).tolist()})
        )
        t0 = time.perf_counter()
        assert main(["solve", "--input", str(problem)]) == 0
        elapsed = time.perf_counter() - t0
        assert sum(json.loads(capsys.readouterr().out)["q"]) == pytest.approx(1.0, abs=1e-9)
        assert elapsed < 1.0


def partition_table(out: str) -> list[tuple[int, int, list[int]]]:
    """The (client, samples, histogram) rows that ``isfl partition`` prints."""
    header, *lines = out.splitlines()
    assert header == "client  samples  histogram"
    rows = []
    for line in lines:
        client, samples, histogram = line.split(maxsplit=2)
        rows.append((int(client), int(samples), json.loads(histogram)))
    return rows


class TestPartitionCommand:
    def test_histogram_table_printed(self, tmp_path, capsys):
        cfg_path = write_config(tmp_path)
        assert main(["partition", "--config", str(cfg_path)]) == 0
        rows = partition_table(capsys.readouterr().out)
        assert [client for client, _, _ in rows] == [0, 1]
        assert all(samples == 40 for _, samples, _ in rows)
        assert all(len(hist) == 3 and sum(hist) == samples for _, samples, hist in rows)

    def test_default_scale_partition(self, tmp_path, capsys):
        cfg_path = write_config(
            tmp_path, classes=10, per_class=2400, dim=4, clients=20,
            shard_size=500, shards_per_client=2, nr=0.98,
            test_size=1000, holdout_size=600,
        )
        assert main(["partition", "--config", str(cfg_path)]) == 0
        rows = partition_table(capsys.readouterr().out)
        assert len(rows) == 20
        assert all(samples == 1000 == sum(hist) for _, samples, hist in rows)

    def test_same_seed_identical_bytes(self, tmp_path, capsys):
        cfg_path = write_config(tmp_path)
        assert main(["partition", "--config", str(cfg_path)]) == 0
        first = capsys.readouterr().out
        assert main(["partition", "--config", str(cfg_path)]) == 0
        assert capsys.readouterr().out == first
        assert len(partition_table(first)) == 2

    def test_missing_config_exits_2(self, tmp_path):
        assert main(["partition", "--config", str(tmp_path / "none.json")]) == 2

    def test_capacity_problem_exits_3(self, tmp_path):
        cfg_path = write_config(tmp_path, clients=50)
        assert main(["partition", "--config", str(cfg_path)]) == 3

    def test_no_training_sample_left_exits_3(self, tmp_path, capsys):
        # 10 classes of 160 samples: the test set and the holdout take all 1600
        cfg_path = write_config(
            tmp_path, classes=10, per_class=160, test_size=1000, holdout_size=600
        )
        assert main(["partition", "--config", str(cfg_path)]) == 3
        out, err = capsys.readouterr()
        assert out == "" and err == (
            "capacity error: holdout + test must leave at least one training sample\n"
        )

    def test_unknown_key_exits_1(self, tmp_path, capsys):
        cfg_path = write_config(tmp_path, bogus_key=1)
        assert main(["partition", "--config", str(cfg_path)]) == 1
        assert capsys.readouterr().err.startswith("config error: unknown config keys")

    @pytest.mark.parametrize("text, kind", [('"abc"', "str"), ("5", "int"), ("[1, 2]", "list")],
                             ids=["string", "number", "list"])
    def test_config_that_is_not_an_object_exits_1(self, tmp_path, capsys, text, kind):
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(text)
        assert main(["partition", "--config", str(cfg_path)]) == 1
        assert capsys.readouterr().err == (
            f"config error: a config must be a JSON object (got {kind})\n"
        )

    @pytest.mark.parametrize("name, content, message", [
        ("data.csv", b"5,1.0,2.0\n", "row 0 has a label 5.0 outside [0, 2)"),
        ("data.bin", DATASET_MAGIC + struct.pack("<III2fH", 1, 2, 2, 1.0, 2.0, 7),
         "labels must lie in [0, n_classes)"),
        ("data.csv", b"", "features must be a non-empty N x d matrix"),
        ("data.bin", DATASET_MAGIC + struct.pack("<III2fH", 1, 2, 0, 1.0, 2.0, 0),
         "n_classes must be positive"),
        ("data.csv", b"label,f0,f1\n0,1.0,2.0\n",
         "could not convert string 'label' to float64 at row 0, column 1."),
        ("data.csv", b"0,1.0,2.0\n1,1.0\n",
         "the number of columns changed from 3 to 2 at row 2; "
         "use `usecols` to select a subset and avoid this error"),
        ("data.csv", b"0,1.0,2.0\n1,abc,2.0\n",
         "could not convert string 'abc' to float64 at row 1, column 2."),
    ], ids=["csv-label", "container-label", "empty-csv", "container-no-classes",
            "csv-header-row", "csv-short-row", "csv-text-cell"])
    def test_a_dataset_file_that_is_rejected_exits_1_naming_the_file(
        self, tmp_path, capsys, name, content, message
    ):
        path = tmp_path / name
        path.write_bytes(content)
        cfg_path = write_config(tmp_path, classes=2, dim=2, dataset_path=str(path))
        assert main(["partition", "--config", str(cfg_path)]) == 1
        out, err = capsys.readouterr()
        assert out == "" and err == f"config error: {path}: {message}\n"

    def test_a_dataset_of_another_shape_exits_1_naming_both_shapes(self, tmp_path, capsys):
        source = generate_synthetic(3, 80, 5, 2.0, seed=0)
        path = tmp_path / "data.csv"
        np.savetxt(path, np.column_stack([source.labels, source.features]), delimiter=",")
        cfg_path = write_config(tmp_path, dataset_path=str(path))  # dim 4, classes 3
        assert main(["partition", "--config", str(cfg_path)]) == 1
        out, err = capsys.readouterr()
        assert out == "" and err == (
            f"config error: dataset at {path} has shape (5 dims, 3 classes) "
            "but the config says (4, 3)\n"
        )


class TestRunCommand:
    def test_single_strategy_smoke(self, tmp_path, capsys):
        cfg_path = write_config(tmp_path, rounds=1)
        out_dir = tmp_path / "runs"
        assert main(["run", "--config", str(cfg_path), "--out", str(out_dir)]) == 0
        metrics = (out_dir / "fedavg_seed1" / "metrics.csv").read_text().splitlines()
        assert metrics[0] == "round,loss,acc_S,acc_G,rho_mean,rho_theory"
        assert len(metrics) == 2
        manifest = json.loads((out_dir / "fedavg_seed1" / "manifest.json").read_text())
        assert manifest["strategy"] == "fedavg" and manifest["seed"] == 1
        assert "run_id" in manifest
        assert "fedavg" in capsys.readouterr().out

    def test_all_strategies_fan_out(self, tmp_path, capsys):
        cfg_path = write_config(
            tmp_path, strategies=["fedavg", "rw_is", "gradnorm_is", "isfl"]
        )
        out_dir = tmp_path / "runs"
        assert main(["run", "--config", str(cfg_path), "--out", str(out_dir)]) == 0
        for strategy in ("fedavg", "rw_is", "gradnorm_is", "isfl"):
            assert (out_dir / f"{strategy}_seed1" / "metrics.csv").exists()
        # isfl runs also emit diagnostics artifacts
        isfl_dir = out_dir / "isfl_seed1"
        assert (isfl_dir / "diagnostics.jsonl").exists()
        assert (isfl_dir / "bounds.csv").exists()
        table = capsys.readouterr().out
        assert all(s in table for s in ("fedavg", "rw_is", "gradnorm_is", "isfl"))

    def test_summary_table_reads_the_final_rounds(self, tmp_path, capsys):
        """Each strategy's acc_S and acc_G are the mean and the ddof=1 spread
        of its runs' final metrics.csv rows, to 4 decimals; one seed has no
        spread."""
        strategies = ["fedavg", "rw_is"]
        cfg_path = write_config(tmp_path, strategies=strategies, seeds=[1, 2], rounds=1)
        for seeds, option in (([1, 2], []), ([1], ["--seed", "1"])):
            out_dir = tmp_path / f"runs{len(seeds)}"
            assert main(["run", "--config", str(cfg_path), "--out", str(out_dir), *option]) == 0
            header, *lines = capsys.readouterr().out.splitlines()
            assert header.split() == ["strategy", "acc_S", "acc_G"]
            assert [line.split()[0] for line in lines] == strategies
            for line in lines:
                strategy, *cells = line.split()
                finals = [
                    (out_dir / f"{strategy}_seed{seed}" / "metrics.csv")
                    .read_text().splitlines()[-1].split(",") for seed in seeds
                ]
                expected = []
                for column in (2, 3):  # acc_S, acc_G
                    accs = [float(final[column]) for final in finals]
                    spread = statistics.stdev(accs) if len(accs) > 1 else 0.0
                    expected += [f"{statistics.fmean(accs):.4f}", "+/-", f"{spread:.4f}"]
                assert cells == expected
                if len(seeds) == 1:
                    assert cells[2] == cells[5] == "0.0000"

    def test_rerun_reproduces_metrics_bytes(self, tmp_path):
        cfg_path = write_config(tmp_path, strategies=["isfl"])
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        main(["run", "--config", str(cfg_path), "--out", str(out_a)])
        main(["run", "--config", str(cfg_path), "--out", str(out_b)])
        for name in ("metrics.csv", "bounds.csv", "diagnostics.jsonl"):
            assert (out_a / "isfl_seed1" / name).read_bytes() == (
                out_b / "isfl_seed1" / name
            ).read_bytes()

    def test_no_nan_in_csvs(self, tmp_path):
        cfg_path = write_config(tmp_path, strategies=["fedavg", "isfl"])
        out_dir = tmp_path / "runs"
        main(["run", "--config", str(cfg_path), "--out", str(out_dir)])
        for path in out_dir.rglob("*.csv"):
            assert "nan" not in path.read_text().lower()

    def test_metrics_rho_columns_match_bounds(self, tmp_path):
        cfg_path = write_config(tmp_path, strategies=["isfl"], rounds=4)
        out_dir = tmp_path / "runs"
        assert main(["run", "--config", str(cfg_path), "--out", str(out_dir)]) == 0
        run_dir = out_dir / "isfl_seed1"
        metrics = [r.split(",") for r in (run_dir / "metrics.csv").read_text().splitlines()[1:]]
        bounds = [r.split(",") for r in (run_dir / "bounds.csv").read_text().splitlines()[1:]]
        assert len(metrics) == len(bounds) == 4
        for m, b in zip(metrics, bounds):
            assert m[0] == b[0]
            assert (m[4], m[5]) == (b[1], b[2])

    def test_divergence_exits_4_without_nan_rows(self, tmp_path, capsys):
        cfg_path = write_config(tmp_path, eta=1e6, rounds=6)
        out_dir = tmp_path / "runs"
        assert main(["run", "--config", str(cfg_path), "--out", str(out_dir)]) == 4
        assert "round 5" in capsys.readouterr().err
        for path in tmp_path.rglob("*.csv"):
            assert "nan" not in path.read_text().lower()

    def test_saturated_isfl_run_exits_4_naming_the_client(self, tmp_path, capsys):
        # at eta 1e4 the aggregate saturates: in round 4 no per-sample
        # gradient on the probe changes for the client that moved; fedavg,
        # which estimates no curvature, finishes
        cfg_path = write_config(
            tmp_path, eta=1e4, rounds=6, strategies=["fedavg", "isfl"], seeds=[2]
        )
        out_dir = tmp_path / "runs"
        assert main(["run", "--config", str(cfg_path), "--out", str(out_dir)]) == 4
        assert (
            "run failed in round 4: client 0: its per-sample gradients did not change on the"
            " probe although its parameters moved by 5.75e+03; the aggregate's largest"
            " |parameter| is 4.18e+49"
        ) in capsys.readouterr().err
        assert (out_dir / "fedavg_seed2" / "metrics.csv").exists()
        assert not (out_dir / "isfl_seed2").exists()

    def test_first_failing_job_in_job_order_is_reported(self, tmp_path, capsys):
        # seed 4 diverges in round 6 and seed 1 in round 5, so the second job
        # fails first when both run at once; the first job's failure is reported
        cfg_path = write_config(tmp_path, eta=1e6, rounds=6, seeds=[4, 1])
        assert main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "runs")]) == 4
        assert "run failed in round 6:" in capsys.readouterr().err

    @pytest.mark.parametrize("workers", [1, None], ids=["grouped", "default"])
    def test_first_failing_job_of_grouped_strategies_is_reported(
        self, tmp_path, capsys, monkeypatch, workers
    ):
        # job order: fedavg on seeds 4 and 1, then isfl on both; fedavg on
        # seed 4 is the first job and fails in round 6
        if workers is not None:
            force_workers(monkeypatch, workers)
        cfg_path = write_config(
            tmp_path, eta=1e6, rounds=6, seeds=[4, 1], strategies=["fedavg", "isfl"]
        )
        assert main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "runs")]) == 4
        assert "run failed in round 6:" in capsys.readouterr().err

    def test_failed_strategy_leaves_the_others_of_its_task_to_finish(
        self, tmp_path, capsys, monkeypatch
    ):
        # one task per seed: fedavg diverges on seed 4 in round 6 and on seed
        # 1 in round 5, while isfl finishes on both as it does alone
        force_workers(monkeypatch, 1)
        settings = dict(eta=1e6, rounds=6, seeds=[4, 1])
        cfg_path = write_config(tmp_path, strategies=["fedavg", "isfl"], **settings)
        out_dir = tmp_path / "runs"
        assert main(["run", "--config", str(cfg_path), "--out", str(out_dir)]) == 4
        assert "run failed in round 6:" in capsys.readouterr().err
        assert not any(out_dir.glob("fedavg_seed*"))
        alone_dir = tmp_path / "alone"
        alone_path = write_config(tmp_path, strategies=["isfl"], **settings)
        assert main(["run", "--config", str(alone_path), "--out", str(alone_dir)]) == 0
        for seed in settings["seeds"]:
            for name in ("metrics.csv", "bounds.csv", "long.csv", "diagnostics.jsonl"):
                written = (out_dir / f"isfl_seed{seed}" / name).read_bytes()
                assert written == (alone_dir / f"isfl_seed{seed}" / name).read_bytes()

    def test_capacity_problem_exits_3(self, tmp_path, capsys):
        cfg_path = write_config(tmp_path, clients=50)
        assert main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "runs")]) == 3
        assert "capacity error" in capsys.readouterr().err

    @pytest.mark.parametrize("key, values, repeated", [
        ("strategies", ["fedavg", "isfl", "fedavg"], "['fedavg']"),
        ("seeds", [1, 2, 1, 2], "[1, 2]"),
    ], ids=["strategies", "seeds"])
    def test_repeated_jobs_exit_1_before_any_run(self, tmp_path, capsys, key, values, repeated):
        cfg_path = write_config(tmp_path, **{key: values})
        out_dir = tmp_path / "runs"
        assert main(["run", "--config", str(cfg_path), "--out", str(out_dir)]) == 1
        assert f"{key} must not repeat; repeated: {repeated}" in capsys.readouterr().err
        assert not out_dir.exists()

    @pytest.mark.parametrize("key, value, message", [
        ("varpi", 1.5, "varpi must lie in [0, 1)"),
        ("varpi", -0.1, "varpi must lie in [0, 1)"),
        ("probe_size", 0, "probe_size must be >= 1"),
        ("separation", -1.0, "separation must be finite and positive"),
        ("test_size", -5, "test_size must be >= 1"),
        ("holdout_size", 0, "holdout_size must be >= 1"),
        ("rounds", 0, "n_rounds must be >= 1"),
        ("strategies", ["fedavg", "bogus"], "(got 'bogus')"),
        ("seeds", [True], "seeds must be a list of non-negative integers (got [True])"),
        ("hidden_dims", [16.5], "hidden_dims must be a list of integers (got [16.5])"),
        ("batch_size", True, "batch_size must be an integer (got True)"),
        ("seeds", [-1], "seeds must be a list of non-negative integers (got [-1])"),
        ("rounds", 1.5, "rounds must be an integer (got 1.5)"),
        ("probe_size", 10.5, "probe_size must be an integer (got 10.5)"),
        ("eta", True, "eta must be a number (got True)"),
        ("sampling_ratio", True, "sampling_ratio must be a number (got True)"),
        ("separation", False, "separation must be a number (got False)"),
        ("nr", "0.8", "nr must be a number (got '0.8')"),
        ("varpi", "0.05", "varpi must be a number (got '0.05')"),
        ("eta", None, "eta must be a number (got None)"),
        ("strategies", "isfl", "strategies must be a list of strategy names (got 'isfl')"),
        ("strategies", "fedavg", "strategies must be a list of strategy names (got 'fedavg')"),
        ("strategies", ["fedavg", 1], "strategies must be a list of strategy names"),
        ("dataset_path", 5, "dataset_path must be a string or null (got 5)"),
        ("dataset_path", ["data.csv"], "dataset_path must be a string or null (got ['data.csv'])"),
        ("activation", 5, "activation must be a string (got 5)"),
        ("activation", "sigmoid", "config error: activation must be one of ('relu', 'tanh')"),
        ("hidden_dims", [0], "config error: hidden dims must be positive"),
        ("probe_size", 31, "config error: probe_size (31) must not exceed holdout_size (30)"),
        # the epoch schedule's length does not fit an index-sized integer
        ("local_epochs", 10**20, "config error: "),
        # 40-sample clients in batches of 16: 3 batches an epoch
        ("local_epochs", sys.maxsize // 3 + 1,
         f"config error: local_epochs {sys.maxsize // 3 + 1} makes a local run of"),
        ("clients", 0, "must be >= 1"),
        ("batch_size", 0, "must be >= 1"),
        ("classes", 1, "n_classes >= 2"),
    ], ids=["varpi-1.5", "varpi-neg", "probe-0", "separation-neg", "test-neg",
            "holdout-0", "rounds-0", "strategy", "seed-bool", "hidden-float", "batch-bool",
            "seed-negative", "rounds-float", "probe-float", "eta-bool", "ratio-bool",
            "separation-bool", "nr-string", "varpi-string", "eta-null", "strategies-isfl",
            "strategies-fedavg", "strategies-number", "dataset-path-number",
            "dataset-path-list", "activation-number", "activation-unknown", "hidden-zero",
            "probe-over-holdout", "epochs-overflow", "epochs-beyond-index", "clients-0",
            "batch-0", "classes-1"])
    def test_bad_setting_exits_1_before_any_job(
        self, tmp_path, capsys, monkeypatch, key, value, message
    ):
        started = []
        monkeypatch.setattr(cli_mod, "run_jobs", started.append)
        cfg_path = write_config(tmp_path, **{key: value})
        assert main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "runs")]) == 1
        assert message in capsys.readouterr().err
        assert started == []

    def test_a_run_too_large_for_memory_exits_3(self, tmp_path, capsys, monkeypatch):
        def out_of_memory(jobs):
            raise MemoryError()

        monkeypatch.setattr(cli_mod, "run_jobs", out_of_memory)
        cfg_path = write_config(tmp_path)
        assert main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "runs")]) == 3
        out, err = capsys.readouterr()
        assert out == "" and err == "capacity error: out of memory\n"

    @pytest.mark.parametrize("config, message", [
        ({"rounds": 1, "clients": 100000, "shard_size": 100},
         "partition needs 20000000 samples but the dataset has 20400"),
        ({"rounds": 1, "test_size": 30000},
         "holdout + test must leave at least one training sample"),
    ], ids=["partition-over-source", "split-over-source"])
    def test_a_synthetic_config_that_cannot_fit_exits_3_before_any_job(
        self, tmp_path, capsys, monkeypatch, config, message
    ):
        """The README defaults, 10 classes of 2,200 samples, with the test set
        and the holdout taking 1,600: validation counts what each job's data
        build would find short."""
        started = []
        monkeypatch.setattr(cli_mod, "run_jobs", started.append)
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(config))
        assert main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "runs")]) == 3
        out, err = capsys.readouterr()
        assert out == "" and err == f"capacity error: {message}\n"
        assert started == []

    def test_negative_seed_option_exits_1_before_any_job(self, tmp_path, capsys, monkeypatch):
        started = []
        monkeypatch.setattr(cli_mod, "run_jobs", started.append)
        cfg_path = write_config(tmp_path)
        assert main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "runs"),
                     "--seed", "-2"]) == 1
        assert "seeds must be a list of non-negative integers (got [-2])" in capsys.readouterr().err
        assert started == []

    def test_no_strategy_exits_1(self, tmp_path, capsys):
        cfg_path = write_config(tmp_path, strategies=[])
        assert main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "runs")]) == 1
        assert "need at least one strategy" in capsys.readouterr().err

    def test_eta_zero_with_isfl_exits_1_before_any_run(self, tmp_path, capsys):
        cfg_path = write_config(tmp_path, eta=0.0, strategies=["fedavg", "isfl"])
        out_dir = tmp_path / "runs"
        assert main(["run", "--config", str(cfg_path), "--out", str(out_dir)]) == 1
        assert "eta must be positive for the isfl strategy" in capsys.readouterr().err
        assert not out_dir.exists()
        # the other strategies still accept eta 0
        cfg_path = write_config(
            tmp_path, eta=0.0, strategies=["fedavg", "rw_is", "gradnorm_is"], rounds=1
        )
        assert main(["run", "--config", str(cfg_path), "--out", str(out_dir)]) == 0

    @pytest.mark.parametrize("eta", [float("nan"), float("inf")])
    def test_non_finite_eta_exits_1_before_any_run(self, tmp_path, capsys, eta):
        cfg_path = write_config(tmp_path, eta=eta)  # written as NaN or Infinity
        out_dir = tmp_path / "runs"
        assert main(["run", "--config", str(cfg_path), "--out", str(out_dir)]) == 1
        assert "eta must be finite" in capsys.readouterr().err
        assert not out_dir.exists()

    @pytest.mark.parametrize("separation", [float("nan"), float("inf")])
    def test_non_finite_separation_exits_1(self, tmp_path, capsys, separation):
        cfg_path = write_config(tmp_path, separation=separation)
        out_dir = tmp_path / "runs"
        assert main(["run", "--config", str(cfg_path), "--out", str(out_dir)]) == 1
        assert "separation must be finite" in capsys.readouterr().err
        assert not out_dir.exists()

    @pytest.mark.parametrize("strategy", ["fedavg", "isfl"])
    def test_overflowing_separation_exits_1_before_any_run(self, tmp_path, capsys, strategy):
        # finite features whose products overflow the first forward pass: the
        # pooled loss is not finite before any training step
        cfg_path = write_config(tmp_path, separation=1e308, strategies=[strategy])
        out_dir = tmp_path / "runs"
        with np.errstate(all="ignore"):
            assert main(["run", "--config", str(cfg_path), "--out", str(out_dir)]) == 1
        assert "pooled loss at the initial parameters is not finite" in capsys.readouterr().err
        assert not out_dir.exists()

    @pytest.mark.parametrize(
        "cell, value, message",
        [((5, 2), np.nan, "non-finite feature"), ((7, 0), 1.7, "non-integer label"),
         ((7, 0), 1e300, "label 1e+300 outside [0, 3)"),
         ((7, 0), 9.3e18, "label 9.3e+18 outside [0, 3)")],
        ids=["nan-feature", "fractional-label", "label-1e300", "label-beyond-int64"],
    )
    def test_bad_csv_cell_exits_1(self, tmp_path, capsys, cell, value, message):
        source = generate_synthetic(3, 80, 4, 2.0, seed=0)
        table = np.column_stack([source.labels, source.features])
        csv_path = tmp_path / "data.csv"
        cfg_path = write_config(tmp_path, dataset_path=str(csv_path))
        out_dir = tmp_path / "runs"
        np.savetxt(csv_path, table, delimiter=",")
        assert main(["run", "--config", str(cfg_path), "--out", str(out_dir / "good")]) == 0
        table[cell] = value
        np.savetxt(csv_path, table, delimiter=",")
        assert main(["run", "--config", str(cfg_path), "--out", str(out_dir / "bad")]) == 1
        assert f"row {cell[0]} has a {message}" in capsys.readouterr().err
        assert not (out_dir / "bad").exists()

    @pytest.mark.parametrize("section", ["header", "features", "labels"])
    def test_truncated_container_exits_1_naming_the_file(self, tmp_path, capsys, section):
        source = generate_synthetic(3, 80, 4, 2.0, seed=0)
        path = tmp_path / "data.bin"
        save_dataset(source, path)
        # 7 magic bytes and a 12-byte header; 4 bytes a feature, 2 a label
        features_end = 19 + 4 * source.features.size
        keep = {"header": 9, "features": 19 + 20, "labels": features_end + 5}[section]
        path.write_bytes(path.read_bytes()[:keep])
        cfg_path = write_config(tmp_path, dataset_path=str(path))
        out_dir = tmp_path / "runs"
        for command in (["partition"], ["run", "--out", str(out_dir)]):
            assert main([*command, "--config", str(cfg_path)]) == 1
            assert f"config error: {path}: truncated {section}" in capsys.readouterr().err
        assert not out_dir.exists()

    @pytest.mark.parametrize("rows, dims", [(2**31, 2**10), (2**32 - 1, 2**32 - 1)],
                             ids=["2^31x2^10", "2^32-1-squared"])
    def test_a_header_claiming_more_than_the_file_exits_1_naming_the_file(
        self, tmp_path, capsys, rows, dims
    ):
        # the magic, a header of rows x dims x 3 classes, and 64 bytes of data
        path = tmp_path / "data.bin"
        path.write_bytes(DATASET_MAGIC + struct.pack("<III", rows, dims, 3) + bytes(64))
        cfg_path = write_config(tmp_path, dataset_path=str(path))
        out_dir = tmp_path / "runs"
        for command in (["partition"], ["run", "--out", str(out_dir)]):
            assert main([*command, "--config", str(cfg_path)]) == 1
            assert capsys.readouterr().err == (
                f"config error: {path}: truncated features (64 of {rows * dims * 4} bytes)\n"
            )
        assert not out_dir.exists()

    def test_epochs_without_a_sample_exit_1_before_any_run(self, tmp_path, capsys):
        # 40-sample clients: floor(0.02 * 40) = 0 samples per epoch
        cfg_path = write_config(tmp_path, sampling_ratio=0.02)
        out_dir = tmp_path / "runs"
        assert main(["run", "--config", str(cfg_path), "--out", str(out_dir)]) == 1
        assert "takes no sample per epoch" in capsys.readouterr().err
        assert not out_dir.exists()
        cfg_path = write_config(tmp_path, sampling_ratio=0.025, rounds=1)  # one sample
        assert main(["run", "--config", str(cfg_path), "--out", str(out_dir)]) == 0

    def test_timings_split_into_phases(self, tmp_path, monkeypatch):
        force_workers(monkeypatch, 1)  # both strategies in one task
        cfg_path = write_config(tmp_path, strategies=["fedavg", "isfl"], rounds=3)
        out_dir = tmp_path / "runs"
        assert main(["run", "--config", str(cfg_path), "--out", str(out_dir)]) == 0
        train = {}
        for strategy in ("fedavg", "isfl"):
            rows = (out_dir / f"{strategy}_seed1" / "timings.csv").read_text().splitlines()
            assert rows[0] == "round,secs,train,aggregate,curvature,solve,stats,eval"
            table = np.array([[float(c) for c in r.split(",")] for r in rows[1:]])
            assert np.array_equal(table[:, 0], [1, 2, 3])
            secs, phases = table[:, 1], table[:, 2:]
            assert np.all(phases >= 0.0) and np.all(phases.sum(axis=1) <= secs + 1e-5)
            assert np.all(phases[:, 0] > 0.0)  # every round trains
            if strategy == "fedavg":
                assert np.all(phases[:, [2, 4]] == 0.0)  # no curvature rows or stats
            else:
                assert phases[0, 2] > 0.0 and phases[-1, 2] == 0.0  # no last-round refresh
            train[strategy] = phases[:, 0]
        # round 1's training and every later round's one training call are shared
        assert np.array_equal(train["fedavg"], train["isfl"])


# sha256 of the deterministic artifacts of GOLDEN_CONFIG, under c10/ of
# GOLDEN_C10_CONFIG and under bits/ of GOLDEN_BITS_CONFIG. The fedavg,
# gradnorm_is and rw_is seed-2 digests were recorded before local training
# moved to lockstep stacks. The isfl digests
# were re-recorded when the curvature rows moved to the difference form, and
# every isfl diagnostics.jsonl, bounds.csv and long.csv digest again when the
# noise statistics became exact expectations in place of 8 random draws per
# client. Every isfl digest (c10/ included) and rw_is seed 1's were last
# re-recorded when the model kernels took their sums as BLAS products (the
# softmax denominator, the log-sum-exp and the bias gradients) and folded
# the mean's 1/N into the softmax scaling, which rounds the gradients
# differently in the last bits. The other digests did not move with it: this
# small model's steps round those bits away. The weight solver moved to
# masked row arithmetic over its KKT faces, which rounds q differently in the
# last bits; the isfl diagnostics.jsonl digests and every c10/ digest were
# re-recorded for that, and only the rho columns of that metrics.csv changed.
# The bits/ digests were recorded after that. The solver then divided the
# curvature row by its largest entry before squaring it, which again moves q
# in the last bits: the isfl diagnostics.jsonl digests and every c10/ and
# bits/ isfl digest were re-recorded, and again only the rho columns of those
# metrics.csv changed. Every isfl long.csv digest was then re-recorded when
# one CSV writer came to write every table: long.csv's dev2 cells had held a
# numpy scalar's repr, such as np.float64(0.75), and now hold the plain
# number; no other cell of any artifact changed.
GOLDEN_CONFIG = dict(
    BASE_CONFIG,
    clients=3,
    sampling_ratio=0.7,  # 28 of 40 samples per epoch: batches of 16 and 12
    rounds=3,
    strategies=["fedavg", "rw_is", "gradnorm_is", "isfl"],
    seeds=[1, 2],
)
GOLDEN_C10_CONFIG = dict(
    BASE_CONFIG,
    classes=10,
    per_class=40,
    dim=6,
    test_size=50,
    holdout_size=60,
    clients=4,
    hidden_dims=[8],
    rounds=3,
    strategies=["isfl"],
    probe_size=50,
)
# every batch of 12 rounds its 1/N, and the wider model at eta 0.5 keeps a
# last-bit change of a gradient, a weight or a sum's order in every
# strategy's metrics.csv
GOLDEN_BITS_CONFIG = dict(
    GOLDEN_CONFIG,
    sampling_ratio=0.9,  # 36 of 40 samples per epoch: 3 batches of 12
    batch_size=12,
    hidden_dims=[16],
    eta=0.5,
    rounds=6,
)
# the c10 run draws from one-sample pools, where the batch sampler reads a
# 32-bit half that numpy's bounded draw would not; its four digests were
# re-recorded for that one cause when the sampler became one raw-block path
GOLDEN_DIGESTS = {
    "bits/fedavg_seed1/metrics.csv":
        "48cece654b9015fa16b5502b083f5ed4949ae18e655bb30f4cbb6821b9040ccc",
    "bits/fedavg_seed2/metrics.csv":
        "8cb7f01422964b47a68494635242efe9c433b098a5def76915b83093bced8fe3",
    "bits/gradnorm_is_seed1/metrics.csv":
        "3de01e18438754de96c49be8d6d8dee0f91d242c3c66a02e0ecf0eb2582b668c",
    "bits/gradnorm_is_seed2/metrics.csv":
        "928ce948844206b09473c8c9405c957fe75520024cbad3bebb5148321649ef45",
    "bits/isfl_seed1/bounds.csv":
        "9ed234054ad00c911329338bccbcaeb5086740d1b26edea0791d0642d6923908",
    "bits/isfl_seed1/diagnostics.jsonl":
        "3c835437c285303fbf926516c8e343c9ffb7640d8e7e699658be2e5aeb7ae70e",
    "bits/isfl_seed1/long.csv":
        "bb376d570effa2875ef3ccd754033bb756cd753aae41c6438727f69606d99845",
    "bits/isfl_seed1/metrics.csv":
        "fb5b556297406aa5ce524df307dda4e54a69f047c786fb7cc0f0c4f42e365569",
    "bits/isfl_seed2/bounds.csv":
        "70cbe82a91f3999398e41c5f767e1268d0c2150dc1a6154e28c93610aeab3abc",
    "bits/isfl_seed2/diagnostics.jsonl":
        "6fbf273ff5d1ccd2d1f8e443d7c66224d1575da0d06d35e89996a615e7308b45",
    "bits/isfl_seed2/long.csv":
        "5a090810dd0bbda8dcfbce09a02dc6636bba700f40f2fe21d9fdf733df1cbd26",
    "bits/isfl_seed2/metrics.csv":
        "0f913526ca96eecb5d5a0dccb19b3ac630a34b2dcca37101f1263250dfd16911",
    "bits/rw_is_seed1/metrics.csv":
        "29dbf018f8e3a3f5687054504aed609fd201bae581cfb97ce9b34c8a1a7fef94",
    "bits/rw_is_seed2/metrics.csv":
        "67bba0ce8d180df140e2f58be290d6c33aa60aec30274005d704f7b97d123be5",
    "c10/isfl_seed1/bounds.csv":
        "4a28dc2e193b2544671451335f06caee20e72e5085ab59a0257fd92a6daad1c6",
    "c10/isfl_seed1/diagnostics.jsonl":
        "1ac8fe5bf03982a39b419cdcc905f559d979df2575cd020ca314cdfcac21542d",
    "c10/isfl_seed1/long.csv":
        "280fafdc604937d0cb226801413dee8b086096d01b7076a84c764f2f0c1b9ae8",
    "c10/isfl_seed1/metrics.csv":
        "c3d6108aea26c29850f31154a775f91c9e187a11093a21b373bd8eabd7228496",
    "fedavg_seed1/metrics.csv":
        "3d7a9573fce49032ce6ee13aba4e78d94a897de52b07976afa3926ba7104976d",
    "fedavg_seed2/metrics.csv":
        "4dc310fdb2a856284d7088b81c471b80a72b44fb1e031ed99b9458c9692d5fb7",
    "gradnorm_is_seed1/metrics.csv":
        "586378de79a60c274cfbe8de6984a96fce852b4fc053e0f86c5ab1ecdc0da09b",
    "gradnorm_is_seed2/metrics.csv":
        "8889a5bd44dfe137b2abfc681ed6ca8338f0f80247245af05b5d1a964800445b",
    "isfl_seed1/bounds.csv":
        "c108f53ce0af806de7e7d28a8641d075537d6a104e2c5510ba848ecfa798dd9c",
    "isfl_seed1/diagnostics.jsonl":
        "b0b0c185bb8beb9711febe260771706f5084c6bcbebec21706d0e4778a653d9d",
    "isfl_seed1/long.csv":
        "80fde0efa256cc4f3a3e960abb8f5b8afc9336b8e18932b24095ece04a0e5627",
    "isfl_seed1/metrics.csv":
        "f784f6259d2efc1f1cfe56d7b4aa6e68dc3efa01af7db48e5f5491708ced352c",
    "isfl_seed2/bounds.csv":
        "468e3684e109dd1dea82f758f174857949129c2e7a906cbd3b0975affe62e500",
    "isfl_seed2/diagnostics.jsonl":
        "dfaebed89401c15d9b5e89fb1ccb721322965f290332eb208094caacc0e2cf72",
    "isfl_seed2/long.csv":
        "f67ef0689b7ed1b404585036e13fb64112ad7f400ff131d282d97d521b2b3827",
    "isfl_seed2/metrics.csv":
        "014298b7823fc75fc5a69b01540e92ea1af87dbf8349acbdb8eb61f991d53fa0",
    "rw_is_seed1/metrics.csv":
        "9a5e809218f35f9cf0999b47eca00cbc1be85e55f89575d70c8e755cb81f712d",
    "rw_is_seed2/metrics.csv":
        "b4647fd22d8615d5f856a098da6a246a0863a4cf1c3cb53e9404112f2fc6fb17",
}


@pytest.fixture(scope="module")
def golden_runs(tmp_path_factory):
    """``isfl run`` of GOLDEN_CONFIG, and of the other two golden configs
    under c10/ and bits/ of the same directory, which it returns."""
    tmp_path = tmp_path_factory.mktemp("golden")
    out_dir = tmp_path / "runs"
    for name, cfg, out in (("config.json", GOLDEN_CONFIG, out_dir),
                           ("c10.json", GOLDEN_C10_CONFIG, out_dir / "c10"),
                           ("bits.json", GOLDEN_BITS_CONFIG, out_dir / "bits")):
        cfg_path = tmp_path / name
        cfg_path.write_text(json.dumps(cfg))
        assert main(["run", "--config", str(cfg_path), "--out", str(out)]) == 0
    return out_dir


class TestGoldenDigests:
    def test_every_strategy_reproduces_its_recorded_artifacts(self, golden_runs):
        """Recorded with numpy 2.4.6 on OpenBLAS 0.3.31 (scipy-openblas).
        Another numpy or BLAS build may round the last bits differently; the
        digests are then re-recorded there, and the change says why."""
        out_dir = golden_runs
        found = {
            path.relative_to(out_dir).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
            for path in sorted(out_dir.rglob("*"))
            if path.name in ("metrics.csv", "diagnostics.jsonl", "bounds.csv", "long.csv")
        }
        assert found == GOLDEN_DIGESTS

    def test_metrics_rho_columns_are_the_bounds_cells(self, golden_runs):
        # one scoring of the run log writes both files: isfl's rho columns
        # are bounds.csv's cells string for string, and the others' are blank
        run_dirs = sorted(path.parent for path in golden_runs.rglob("metrics.csv"))
        assert len(run_dirs) == 8 + 1 + 8
        for run_dir in run_dirs:
            metrics = [r.split(",") for r in (run_dir / "metrics.csv").read_text().splitlines()]
            if run_dir.name.startswith("isfl_"):
                bounds = [r.split(",") for r in (run_dir / "bounds.csv").read_text().splitlines()]
                assert [m[:1] + m[4:] for m in metrics[1:]] == [b[:3] for b in bounds[1:]]
            else:
                assert all(m[4:] == ["", ""] for m in metrics[1:])

    def test_every_csv_cell_reads_as_a_number(self, golden_runs):
        # every cell but a blank or a series name reads back with float(),
        # and no artifact holds a numpy scalar's repr such as np.float64(0.75)
        artifacts = sorted(path for path in golden_runs.rglob("*") if path.is_file())
        tables = [path for path in artifacts if path.suffix == ".csv"]
        assert len(tables) == 2 * (8 + 1 + 8) + 2 * 5  # metrics and timings; bounds and long
        for path in artifacts:
            assert "np." not in path.read_text(), path
        for path in tables:
            header, *lines = [line.split(",") for line in path.read_text().splitlines()]
            assert lines, path
            for cells in lines:
                for name, cell in zip(header, cells, strict=True):
                    if cell and name != "series":
                        float(cell)


# Two jobs of different seeds, so two worker tasks, each of which reports
# whether ``numpy.random`` was loaded when it started
NUMPY_RANDOM_PROBE = """
import sys
import isfl.cli as cli

def task(jobs):
    return ["numpy.random" in sys.modules for _ in jobs]

cli.run_task = task
print("numpy.random" in sys.modules)
print(cli.run_jobs([(None, "fedavg", 1, 1.0, None), (None, "fedavg", 2, 1.0, None)]))
"""


class TestSchedules:
    """Whether the strategies of a seed share one worker, one data build and
    one round 1 depends on the CPU count; the artifacts must not."""

    @staticmethod
    def artifacts(out_dir):
        return {
            path.relative_to(out_dir).as_posix(): path.read_bytes()
            for path in sorted(out_dir.rglob("*"))
            if path.is_file() and path.name != "timings.csv"
        }

    def test_artifacts_do_not_depend_on_the_schedule(self, tmp_path, monkeypatch):
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(GOLDEN_CONFIG))
        found = {}
        for schedule, workers in (("grouped", 1), ("single", None)):
            force_workers(monkeypatch, workers)
            out_dir = tmp_path / schedule
            assert main(["run", "--config", str(cfg_path), "--out", str(out_dir / "run")]) == 0
            assert main(["sweep-sr", "--config", str(cfg_path), "--sr", "0.5,1.0",
                         "--out", str(out_dir / "sweep")]) == 0
            found[schedule] = self.artifacts(out_dir)
            digests = {
                name[len("run/"):]: hashlib.sha256(data).hexdigest()
                for name, data in found[schedule].items()
                if name.startswith("run/") and name.endswith(
                    ("metrics.csv", "diagnostics.jsonl", "bounds.csv", "long.csv")
                )
            }
            assert digests == {
                k: v for k, v in GOLDEN_DIGESTS.items() if not k.startswith(("c10/", "bits/"))
            }
        assert found["grouped"] == found["single"]
        # per seed and ratio 2 files for each of 3 strategies and 5 for isfl:
        # 2 keys of the run, 4 of the sweep, and sweep_sr.csv
        assert len(found["grouped"]) == (2 + 4) * (3 * 2 + 5) + 1

    @pytest.mark.parametrize("n_keys, workers, strategies, tasks", [
        (1, 2, 2, [[0], [1]]),
        (2, 2, 2, [[0, 2], [1, 3]]),
        (3, 2, 2, [[0, 3], [1, 4], [2], [5]]),
        (2, 4, 2, [[0], [1], [2], [3]]),
        (4, 2, 1, [[0], [1], [2], [3]]),
    ], ids=["one-key", "two-keys", "three-keys", "more-workers", "one-strategy"])
    def test_group_jobs(self, n_keys, workers, strategies, tasks):
        # jobs in job order: strategy-major, one key per seed
        keys = [seed for _ in range(strategies) for seed in range(n_keys)]
        assert cli_mod.group_jobs(keys, workers) == tasks

    def test_failures_are_reported_in_job_order_across_tasks(self, tmp_path, monkeypatch):
        # tasks [fedavg 4, isfl 4] and [fedavg 1, isfl 1]: the second task's
        # first job comes before the first task's failing job in job order
        force_workers(monkeypatch, 1)

        def fake(metrics, log, cfg, strategy, seed, sampling_ratio, out_dir):
            if (strategy, seed) in (("isfl", 4), ("fedavg", 1)):
                raise RoundFailure(2, f"{strategy} on seed {seed}")

        monkeypatch.setattr(cli_mod, "write_run", fake)  # forked workers inherit it
        cfg = ExperimentConfig(**BASE_CONFIG)
        jobs = [
            (cfg, s, d, cfg.sampling_ratio, tmp_path / f"{s}_{d}")
            for s in ("fedavg", "isfl") for d in (4, 1)
        ]
        with pytest.raises(RoundFailure, match="round 2: fedavg on seed 1"):
            cli_mod.run_jobs(jobs)

    def test_task_builds_data_once_and_trains_round_one_once(self, tmp_path, monkeypatch):
        calls = {"build_experiment_data": 0, "local_train": 0}
        for module, name in ((cli_mod, "build_experiment_data"), (federation_mod, "local_train")):
            real = getattr(module, name)

            def counting(*args, _name=name, _real=real, **kwargs):
                calls[_name] += 1
                return _real(*args, **kwargs)

            monkeypatch.setattr(module, name, counting)
        cfg = ExperimentConfig(**dict(GOLDEN_CONFIG, rounds=4))
        done = cli_mod.run_task([(cfg, s, 1, 0.5, tmp_path / s) for s in cfg.strategies])
        assert len(done) == len(cfg.strategies)
        assert not any(isinstance(metrics, Exception) for metrics in done)
        # round 1 trains the clients once for every strategy, and each later
        # round trains every strategy in one call
        assert calls == {"build_experiment_data": 1, "local_train": cfg.rounds}

    def test_workers_start_with_numpy_random_loaded(self):
        """numpy loads ``numpy.random`` lazily; ``run_jobs`` loads it before
        it forks, so no worker imports it again. Run in a fresh interpreter,
        where importing ``isfl.cli`` has not loaded it."""
        src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])
        ))
        done = subprocess.run([sys.executable, "-c", NUMPY_RANDOM_PROBE], env=env,
                              capture_output=True, text=True, check=True)
        assert done.stdout.splitlines() == ["False", "[True, True]"]

    def test_import_loads_no_worker_module(self):
        """``import isfl.cli`` leaves the modules only ``run_jobs`` needs
        unloaded, so a command that starts no job does not pay for them."""
        src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])
        ))
        probe = "import sys, isfl.cli; print(*(name in sys.modules for name in sys.argv[1:]))"
        names = ["multiprocessing", "concurrent.futures", "numpy.random"]
        done = subprocess.run([sys.executable, "-c", probe, *names], env=env,
                              capture_output=True, text=True, check=True)
        assert done.stdout.split() == ["False"] * len(names)


# The ``isfl`` console entry, run on the arguments after the script: prints
# the OPENBLAS_NUM_THREADS variable and OpenBLAS's thread count of every
# worker it forks, as it starts, and of its own process at the end
ENTRY_PROBE = BLAS_THREADS + """
import os, sys
import isfl

def report(who):
    os.write(1, f"{who} {os.environ.get('OPENBLAS_NUM_THREADS')} {threads()}\\n".encode())

os.register_at_fork(after_in_child=lambda: report("worker"))
sys.argv[0] = "isfl"
code = isfl.main()
report("main")
sys.exit(code)
"""

BLAS_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


class TestConsoleEntry:
    """``isfl.main``, the ``isfl`` command, runs every process with one BLAS
    thread, whatever the caller's environment says."""

    @staticmethod
    def run_entry(args, **variables):
        """ENTRY_PROBE in a fresh interpreter whose environment has none of
        the BLAS variables but ``variables``; its reports, split by process."""
        src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
        env = {k: v for k, v in os.environ.items() if k not in BLAS_VARIABLES}
        env.update(variables, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])
        ))
        done = subprocess.run([sys.executable, "-c", ENTRY_PROBE, *map(str, args)], env=env,
                              capture_output=True, text=True, check=True)
        reports = [line.split() for line in done.stdout.splitlines()]
        return [r[1:] for r in reports if r[0] == "main"], [r[1:] for r in reports if r[0] == "worker"]

    def test_run_and_its_workers_use_one_blas_thread(self, tmp_path):
        cfg_path = write_config(tmp_path, seeds=[1, 2])
        main_reports, workers = self.run_entry(["run", "--config", cfg_path, "--out", tmp_path / "out"])
        assert len(main_reports) == 1 and workers
        for variable, threads in main_reports + workers:
            assert variable == "1"
            assert threads in ("None", "1")  # where OpenBLAS reports its count
        assert sorted(p.name for p in (tmp_path / "out").iterdir()) == [
            "fedavg_seed1", "fedavg_seed2"
        ]

    def test_artifacts_do_not_depend_on_the_callers_blas_threads(self, tmp_path):
        """The noise statistics' (500 x 64)T @ (500 x 64) gemm rounds
        differently under one and two OpenBLAS threads: with OpenBLAS 0.3.31
        on 2 CPUs, ``python -m isfl.cli run`` on this config writes another
        bounds.csv under OPENBLAS_NUM_THREADS=2 than under 1. The ``isfl``
        command writes the same files with the variable unset, 1 or 2."""
        cfg_path = write_config(
            tmp_path, classes=5, per_class=300, dim=64, hidden_dims=[64], shard_size=250,
            probe_size=100, holdout_size=100, test_size=100, batch_size=128,
            sampling_ratio=0.5, rounds=1, strategies=["isfl"], seeds=[9, 10],
        )
        found = []
        for setting in (None, "1", "2"):
            out_dir = tmp_path / f"threads-{setting}"
            variables = {} if setting is None else {"OPENBLAS_NUM_THREADS": setting}
            _, workers = self.run_entry(["run", "--config", cfg_path, "--out", out_dir], **variables)
            assert workers and all(variable == "1" for variable, _ in workers)
            found.append(TestSchedules.artifacts(out_dir))
        assert len(found[0]) == 2 * 5 and found[0] == found[1] == found[2]


class TestSweepCommand:
    def test_sweep_rows(self, tmp_path, capsys):
        cfg_path = write_config(tmp_path, strategies=["fedavg", "isfl"], rounds=1)
        out_dir = tmp_path / "sweep"
        assert main(["sweep-sr", "--config", str(cfg_path), "--sr", "0.5,1.0",
                     "--out", str(out_dir)]) == 0
        rows = (out_dir / "sweep_sr.csv").read_text().splitlines()
        assert rows[0] == "strategy,sr,seed,acc_S,acc_G"
        assert len(rows) == 1 + 2 * 2

    def test_rows_match_their_run_directories(self, tmp_path):
        cfg_path = write_config(tmp_path, strategies=["fedavg", "rw_is"], seeds=[1, 2], rounds=1)
        out_dir = tmp_path / "sweep"
        assert main(["sweep-sr", "--config", str(cfg_path), "--sr", "0.5,1.0",
                     "--out", str(out_dir)]) == 0
        rows = [r.split(",") for r in (out_dir / "sweep_sr.csv").read_text().splitlines()[1:]]
        assert [r[:3] for r in rows] == [
            [s, r, d] for s in ("fedavg", "rw_is") for r in ("0.5", "1.0") for d in ("1", "2")
        ]
        for strategy, ratio, seed, acc_s, acc_g in rows:
            final = (out_dir / f"{strategy}_sr{ratio}_seed{seed}" / "metrics.csv").read_text()
            assert final.splitlines()[-1].split(",")[2:4] == [acc_s, acc_g]

    def test_printed_means_read_the_sweep_rows(self, tmp_path, capsys):
        cfg_path = write_config(tmp_path, strategies=["fedavg", "rw_is"], seeds=[1, 2], rounds=1)
        out_dir = tmp_path / "sweep"
        assert main(["sweep-sr", "--config", str(cfg_path), "--sr", "0.5,1.0",
                     "--out", str(out_dir)]) == 0
        printed = [line.split() for line in capsys.readouterr().out.splitlines() if "SR=" in line]
        rows = [r.split(",") for r in (out_dir / "sweep_sr.csv").read_text().splitlines()[1:]]
        assert [line[:2] for line in printed] == [
            [s, f"SR={r}"] for s in ("fedavg", "rw_is") for r in ("0.5", "1.0")
        ]
        for strategy, ratio, *_, mean in printed:
            accs = [float(r[4]) for r in rows if r[0] == strategy and f"SR={r[1]}" == ratio]
            assert len(accs) == 2 and mean == f"{statistics.fmean(accs):.4f}"

    def test_full_ratio_matches_plain_run(self, tmp_path):
        cfg_path = write_config(tmp_path, rounds=1)
        run_dir, sweep_dir = tmp_path / "runs", tmp_path / "sweep"
        main(["run", "--config", str(cfg_path), "--out", str(run_dir)])
        main(["sweep-sr", "--config", str(cfg_path), "--sr", "1.0",
              "--out", str(sweep_dir)])
        metrics = (run_dir / "fedavg_seed1" / "metrics.csv").read_text().splitlines()[-1]
        _, _, acc_s, acc_g, _, _ = metrics.split(",")
        sweep_row = (sweep_dir / "sweep_sr.csv").read_text().splitlines()[1]
        assert sweep_row.split(",")[3] == acc_s
        assert sweep_row.split(",")[4] == acc_g

    def test_invalid_ratio_exits_1(self, tmp_path):
        cfg_path = write_config(tmp_path)
        assert main(["sweep-sr", "--config", str(cfg_path), "--sr", "0,1.0",
                     "--out", str(tmp_path / "s")]) == 1

    def test_ratio_without_a_sample_exits_1_before_any_run(self, tmp_path, capsys):
        cfg_path = write_config(tmp_path)
        out_dir = tmp_path / "s"
        assert main(["sweep-sr", "--config", str(cfg_path), "--sr", "1.0,0.02",
                     "--out", str(out_dir)]) == 1
        assert "sampling_ratio 0.02 takes no sample" in capsys.readouterr().err
        assert not out_dir.exists()

    @pytest.mark.parametrize("sr", ["0.5,1.0,0.5", "0.5,0.50"])
    def test_repeated_ratio_exits_1_before_any_run(self, tmp_path, capsys, sr):
        cfg_path = write_config(tmp_path)
        out_dir = tmp_path / "s"
        assert main(["sweep-sr", "--config", str(cfg_path), "--sr", sr,
                     "--out", str(out_dir)]) == 1
        assert "sampling ratios must not repeat; repeated: [0.5]" in capsys.readouterr().err
        assert not out_dir.exists()

    def test_no_ratio_exits_1(self, tmp_path):
        cfg_path = write_config(tmp_path)
        assert main(["sweep-sr", "--config", str(cfg_path), "--sr", ",",
                     "--out", str(tmp_path / "s")]) == 1


NAN, INF = float("nan"), float("inf")
# a round record that a one-client, two-category log accepts
ROUND = {"type": "round", "round": 1, "lipschitz": [[1.0, 2.0]], "q_used": [[0.5, 0.5]],
         "q_star": [[0.6, 0.4]], "sigma2": [0.3], "g2": 0.2, "dev2": [0.01],
         "loss_start": 0.7}


def round_line(**edits):
    return json.dumps({**ROUND, **edits})


class TestBoundsCommand:
    def test_recomputes_from_log(self, tmp_path):
        cfg_path = write_config(tmp_path, strategies=["isfl"])
        out_dir = tmp_path / "runs"
        main(["run", "--config", str(cfg_path), "--out", str(out_dir)])
        run_dir = out_dir / "isfl_seed1"
        names = ("bounds.csv", "long.csv")
        original = {name: (run_dir / name).read_bytes() for name in names}
        for name in names:
            (run_dir / name).unlink()
        assert main(["bounds", "--run-dir", str(run_dir)]) == 0
        assert {name: (run_dir / name).read_bytes() for name in names} == original

    def test_missing_log_exits_2(self, tmp_path):
        assert main(["bounds", "--run-dir", str(tmp_path)]) == 2

    @pytest.mark.parametrize("text", ["", "\n  \n\t\n"], ids=["empty", "blank-lines"])
    def test_a_log_without_a_header_exits_1(self, tmp_path, capsys, text):
        log = tmp_path / "diagnostics.jsonl"
        log.write_text(text)
        assert main(["bounds", "--run-dir", str(tmp_path)]) == 1
        assert capsys.readouterr().err == f"run log error: {log}: missing run header record\n"
        assert sorted(tmp_path.iterdir()) == [log]  # no bounds.csv or long.csv

    @pytest.mark.parametrize("header, record, where, message", [
        ({}, '{"type": "round", "round": 1}', 2, "KeyError: 'lipschitz'"),
        ({}, "[1, 2]", 2, "TypeError: not a JSON object"),
        (None, '{"type": "run", "p": [1.0]}', 1, "KeyError: 'p_local'"),
        ({"eta": 0}, round_line(), 1, "ValueError: eta must be positive (got 0.0)"),
        ({"eta": -0.1}, round_line(), 1, "ValueError: eta must be positive (got -0.1)"),
        ({"eta": NAN}, round_line(), 1, "ValueError: eta must be finite"),
        ({"local_epochs": 0}, round_line(), 1,
         "ValueError: local_epochs must be an integer >= 1 (got 0)"),
        ({"local_epochs": -2}, round_line(), 1,
         "ValueError: local_epochs must be an integer >= 1 (got -2)"),
        ({"local_epochs": 1.5}, round_line(), 1,
         "ValueError: local_epochs must be an integer >= 1 (got 1.5)"),
        ({"varpi": 1.0}, round_line(), 1, "ValueError: varpi must lie in [0, 1) (got 1.0)"),
        ({"pi": [NAN]}, round_line(), 1, "ValueError: pi must be finite"),
        ({"p": [0.5, INF]}, round_line(), 1, "ValueError: p must be finite"),
        ({"p_local": [[0.5, 0.5]] * 2}, round_line(), 1,
         "ValueError: pi has shape (1,), expected (2,)"),
        ({}, round_line(lipschitz=[[1.0, NAN]]), 2, "ValueError: lipschitz must be finite"),
        ({}, round_line(q_used=[0.5, 0.5]), 2,
         "ValueError: q_used has shape (2,), expected (1, 2)"),
        ({}, round_line(sigma2=[0.3, 0.3]), 2,
         "ValueError: sigma2 has shape (2,), expected (1,)"),
        ({}, round_line(g2=INF), 2, "ValueError: g2 must be finite"),
        ({}, round_line(loss_start=NAN), 2, "ValueError: loss_start must be finite"),
        ({}, round_line(round=1.5), 2, "ValueError: round must be 1 (got 1.5)"),
        ({}, round_line(round=True), 2, "ValueError: round must be 1 (got True)"),
        ({}, round_line(round="1"), 2, "ValueError: round must be 1 (got '1')"),
        ({}, round_line(round=0), 2, "ValueError: round must be 1 (got 0)"),
        ({}, round_line() + "\n" + round_line(), 3, "ValueError: round must be 2 (got 1)"),
        ({}, round_line() + "\n" + round_line(round=2, type="rnd"), 3,
         "ValueError: type must be 'round' after the header (got 'rnd')"),
        ({}, round_line() + '\n{"type": "run"}', 3,
         "ValueError: type must be 'round' after the header (got 'run')"),
        ({"eta": "0.1"}, round_line(), 1, "ValueError: eta holds '0.1', which is not a number"),
        ({"eta": True}, round_line(), 1, "ValueError: eta holds True, which is not a number"),
        ({"pi": [True]}, round_line(), 1, "ValueError: pi holds True, which is not a number"),
        ({}, round_line(g2="0.2"), 2, "ValueError: g2 holds '0.2', which is not a number"),
        ({}, round_line(lipschitz=[["1", "2"]]), 2,
         "ValueError: lipschitz holds '1', which is not a number"),
        ({"p": [0.5, None]}, round_line(), 1, "ValueError: p holds None, which is not a number"),
        ({"eta": 10**400}, round_line(), 1, "OverflowError: int too large to convert to float"),
    ], ids=[
        "round-missing-key", "not-an-object", "header-missing-key", "eta-zero",
        "eta-negative", "eta-nan", "epochs-zero", "epochs-negative", "epochs-fraction",
        "varpi-one", "pi-nan", "p-inf", "pi-shape", "lipschitz-nan", "q-used-shape",
        "sigma2-shape", "g2-inf", "loss-start-nan", "round-fraction", "round-bool",
        "round-string", "round-zero", "round-repeated", "type-unknown", "header-repeated",
        "eta-string", "eta-bool", "pi-bool", "g2-string", "lipschitz-strings", "p-null",
        "eta-int-overflow",
    ])
    def test_malformed_log_exits_1_naming_the_line(
        self, tmp_path, capsys, header, record, where, message
    ):
        """``header`` edits a valid header (None: no header); ``record`` is
        the next line. Python's json writes and reads NaN and Infinity."""
        head = {"type": "run", "p": [0.5, 0.5], "p_local": [[0.5, 0.5]], "pi": [1.0],
                "varpi": 0.05, "eta": 0.1, "local_epochs": 1}
        log = tmp_path / "diagnostics.jsonl"
        lines = [] if header is None else [json.dumps({**head, **header})]
        log.write_text("\n".join([*lines, record]) + "\n")
        assert main(["bounds", "--run-dir", str(tmp_path)]) == 1
        assert capsys.readouterr().err == f"run log error: {log}, line {where}: {message}\n"
        assert sorted(tmp_path.iterdir()) == [log]  # no bounds.csv or long.csv

    def test_a_bound_too_large_for_a_float_exits_1(self, tmp_path, capsys):
        # eta**2 of the drift bound overflows a Python float
        head = {"type": "run", "p": [0.5, 0.5], "p_local": [[0.5, 0.5]], "pi": [1.0],
                "varpi": 0.05, "eta": 1e200, "local_epochs": 1}
        log = tmp_path / "diagnostics.jsonl"
        log.write_text(json.dumps(head) + "\n" + round_line() + "\n")
        assert main(["bounds", "--run-dir", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("run log error: ") and err.count("\n") == 1
        assert sorted(tmp_path.iterdir()) == [log]  # no bounds.csv or long.csv
        assert err.startswith("run log error: eta 1e+200 and local_epochs 1 ")

    @pytest.mark.parametrize("header, rounds, message", [
        ({}, [{"lipschitz": [[1e160, 2.0]]}], "round 1: rho_realized is inf, not finite"),
        ({}, [{"loss_start": 1e307}, {"round": 2, "loss_start": -1e307}],
         "round 1: bound_rhs is inf, not finite"),
        ({"p": [0.7, 0.7]}, [{}], "p: probs must sum to 1 (got 1.4)"),
        ({"local_epochs": 10**200}, [{}],
         f"eta 0.1 and local_epochs {10**200} put the drift terms beyond a float: "
         "int too large to convert to float"),
    ], ids=["lipschitz-1e160", "loss-start-1e307", "p-sum", "epochs-overflow"])
    def test_a_log_that_cannot_be_scored_exits_1_naming_the_round_or_key(
        self, tmp_path, capsys, header, rounds, message
    ):
        """``header`` edits a valid header and each of ``rounds`` edits ROUND;
        the log reads, but a row of its bound is not finite or a header value
        does not fit the bound's arithmetic."""
        head = {"type": "run", "p": [0.5, 0.5], "p_local": [[0.5, 0.5]], "pi": [1.0],
                "varpi": 0.05, "eta": 0.1, "local_epochs": 1}
        log = tmp_path / "diagnostics.jsonl"
        lines = [json.dumps({**head, **header}), *(round_line(**edits) for edits in rounds)]
        log.write_text("\n".join(lines) + "\n")
        assert main(["bounds", "--run-dir", str(tmp_path)]) == 1
        assert capsys.readouterr().err == f"run log error: {message}\n"
        assert sorted(tmp_path.iterdir()) == [log]  # no bounds.csv or long.csv


class TestExperimentConfig:
    def test_default_settings(self):
        cfg = ExperimentConfig()
        assert cfg.clients == 20
        assert cfg.rounds == 25
        assert cfg.per_class == 2200
        assert cfg.local_epochs == 5
        assert cfg.batch_size == 128
        assert cfg.eta == pytest.approx(1e-3)
        assert cfg.nr == 0.95
        assert cfg.probe_size == 500
        assert cfg.varpi == 0.05
        assert cfg.shard_size == 500
        assert cfg.shards_per_client == 2

    def test_default_data_builds(self):
        shards, probe, test = build_experiment_data(ExperimentConfig(), 0)
        assert len(shards) == 20
        assert all(len(s) == 1000 for s in shards)
        assert len(probe) == 500 and len(test) == 1000

    def test_validation_builds_no_run_schedule(self):
        # eight 128-sample batches an epoch: the run of 10**6 epochs would be
        # a tuple of 8 * 10**6 entries, and one of 10**12 epochs no memory holds
        tracemalloc.start()
        try:
            ExperimentConfig(local_epochs=10**6).validate()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2**20
        ExperimentConfig(local_epochs=10**12).validate()

    def test_validation_builds_no_epoch(self):
        # 2 * 10**7-sample clients: one epoch is 156,250 batches of 128, which
        # validation counts; a dataset file's size is not checked before a job
        tracemalloc.start()
        try:
            ExperimentConfig(dataset_path="d.csv", shard_size=10**7).validate()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2**10

    def test_validation_catches_bad_strategy(self, tmp_path):
        path = write_config(tmp_path, strategies=["bogus"])
        with pytest.raises(ValueError):
            ExperimentConfig.from_file(path)

import hashlib
import json
import logging
import time

import numpy as np
import pytest

import isfl.cli as cli_mod
import isfl.federation as federation_mod
from isfl.cli import ExperimentConfig, build_experiment_data, main
from isfl.data import generate_synthetic
from isfl.federation import RoundFailure

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
                    "fbd17048c482422a0892adf64cde967e4db385679a104e702abfa18e511a8139"),
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

    def test_bad_input_labelled_an_input_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"p": [0.5, 0.6], "p_k": [0.5, 0.5], "L": [1.0, 2.0]}))
        assert main(["solve", "--input", str(bad)]) == 1
        assert capsys.readouterr().err.startswith("input error: probs must sum to 1")

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

    def test_unknown_key_exits_1(self, tmp_path, capsys):
        cfg_path = write_config(tmp_path, bogus_key=1)
        assert main(["partition", "--config", str(cfg_path)]) == 1
        assert capsys.readouterr().err.startswith("config error: unknown config keys")


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

    def test_failed_task_runs_none_of_its_later_strategies(self, tmp_path, monkeypatch):
        force_workers(monkeypatch, 1)
        cfg_path = write_config(
            tmp_path, eta=1e6, rounds=6, seeds=[4, 1], strategies=["fedavg", "isfl"]
        )
        out_dir = tmp_path / "runs"
        assert main(["run", "--config", str(cfg_path), "--out", str(out_dir)]) == 4
        assert not any(out_dir.glob("isfl_seed*"))

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
    ], ids=["varpi-1.5", "varpi-neg", "probe-0", "separation-neg", "test-neg",
            "holdout-0", "rounds-0", "strategy", "seed-bool", "hidden-float", "batch-bool",
            "seed-negative", "rounds-float", "probe-float"])
    def test_bad_setting_exits_1_before_any_job(
        self, tmp_path, capsys, monkeypatch, key, value, message
    ):
        started = []
        monkeypatch.setattr(cli_mod, "run_jobs", started.append)
        cfg_path = write_config(tmp_path, **{key: value})
        assert main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "runs")]) == 1
        assert message in capsys.readouterr().err
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
        [((5, 2), np.nan, "non-finite feature"), ((7, 0), 1.7, "non-integer label")],
        ids=["nan-feature", "fractional-label"],
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

    def test_epochs_without_a_sample_exit_1_before_any_run(self, tmp_path, capsys):
        # 40-sample clients: floor(0.02 * 40) = 0 samples per epoch
        cfg_path = write_config(tmp_path, sampling_ratio=0.02)
        out_dir = tmp_path / "runs"
        assert main(["run", "--config", str(cfg_path), "--out", str(out_dir)]) == 1
        assert "takes no sample per epoch" in capsys.readouterr().err
        assert not out_dir.exists()
        cfg_path = write_config(tmp_path, sampling_ratio=0.025, rounds=1)  # one sample
        assert main(["run", "--config", str(cfg_path), "--out", str(out_dir)]) == 0

    def test_timings_split_into_phases(self, tmp_path):
        cfg_path = write_config(tmp_path, strategies=["fedavg", "isfl"], rounds=3)
        out_dir = tmp_path / "runs"
        assert main(["run", "--config", str(cfg_path), "--out", str(out_dir)]) == 0
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


# sha256 of the deterministic artifacts of GOLDEN_CONFIG, and under c10/ of
# GOLDEN_C10_CONFIG. The fedavg, rw_is and gradnorm_is digests were recorded
# before local training moved to lockstep stacks. The isfl digests were
# re-recorded when the curvature rows moved to the difference form, which
# rounds the rows differently in the last bits and so moves the last digit of
# a few rho values. The c10/ digests were recorded before the solver screened
# its faces: with 10 categories a solve has many faces to skip.
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
GOLDEN_DIGESTS = {
    "c10/isfl_seed1/bounds.csv":
        "ee2d788a07580e4c8677e01337570c39ecea005ed19683f8111a698a6a2ea101",
    "c10/isfl_seed1/diagnostics.jsonl":
        "959bb83384af840f6870ef654c2ea3150af0dac639df3e94ee27e02819f2cf3d",
    "c10/isfl_seed1/long.csv":
        "850d9574f282f6a18991d83863098d4bf3d7caff07f68a50763404ec891dc6ba",
    "c10/isfl_seed1/metrics.csv":
        "cdb2d2d3cd1abd4263a18e9a0abe1bb33bd607d04822b9f45982ffe225d9c30a",
    "fedavg_seed1/metrics.csv":
        "3d7a9573fce49032ce6ee13aba4e78d94a897de52b07976afa3926ba7104976d",
    "fedavg_seed2/metrics.csv":
        "4dc310fdb2a856284d7088b81c471b80a72b44fb1e031ed99b9458c9692d5fb7",
    "gradnorm_is_seed1/metrics.csv":
        "586378de79a60c274cfbe8de6984a96fce852b4fc053e0f86c5ab1ecdc0da09b",
    "gradnorm_is_seed2/metrics.csv":
        "8889a5bd44dfe137b2abfc681ed6ca8338f0f80247245af05b5d1a964800445b",
    "isfl_seed1/bounds.csv":
        "1503355ec0021666fa8aa2ccbdfda94b28ed30254c602774728f55ca561ac410",
    "isfl_seed1/diagnostics.jsonl":
        "860e603a65977b9e6f4e6d44c049cb2562005c7c7595cb9c181a899957645bcc",
    "isfl_seed1/long.csv":
        "880a917b324fae9da003aacab0df50bd57aace65f7c4213f99fc739dca08e639",
    "isfl_seed1/metrics.csv":
        "5b92844aa58eed027cc1cceb7df30f8a35899386214e58763570414a34ee3cc6",
    "isfl_seed2/bounds.csv":
        "95b67f3a2c45e21627c18a0b2f5f57ab814f6851e21df4ed426b92a84aecb314",
    "isfl_seed2/diagnostics.jsonl":
        "09cf58e261ff9a562a6a70ef5f5ff45c0bc6a1f382999b07df08258ae23c32b2",
    "isfl_seed2/long.csv":
        "a07be41da52b9475d5c23a2789abcbe6a575486486b9498d4075199b1dd7541b",
    "isfl_seed2/metrics.csv":
        "bcc48c5b72f63a89e8214fc54bc769e175980c147ed1bb4e4379ef5397f6d2ec",
    "rw_is_seed1/metrics.csv":
        "aff1a1c9de5fe8c560617426f494cd5e579c694591ae7074b1bf8fbce80223b9",
    "rw_is_seed2/metrics.csv":
        "b4647fd22d8615d5f856a098da6a246a0863a4cf1c3cb53e9404112f2fc6fb17",
}


class TestGoldenDigests:
    def test_every_strategy_reproduces_its_recorded_artifacts(self, tmp_path):
        """Recorded with numpy 2.4.6 on OpenBLAS 0.3.31 (scipy-openblas).
        Another numpy or BLAS build may round the last bits differently; the
        digests are then re-recorded there, and the change says why."""
        out_dir = tmp_path / "runs"
        for name, cfg, out in (("config.json", GOLDEN_CONFIG, out_dir),
                               ("c10.json", GOLDEN_C10_CONFIG, out_dir / "c10")):
            cfg_path = tmp_path / name
            cfg_path.write_text(json.dumps(cfg))
            assert main(["run", "--config", str(cfg_path), "--out", str(out)]) == 0
        found = {
            path.relative_to(out_dir).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
            for path in sorted(out_dir.rglob("*"))
            if path.name in ("metrics.csv", "diagnostics.jsonl", "bounds.csv", "long.csv")
        }
        assert found == GOLDEN_DIGESTS


class TestSchedules:
    """Whether the strategies of a seed share one worker and one opening
    depends on the CPU count; the artifacts must not."""

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
                k: v for k, v in GOLDEN_DIGESTS.items() if not k.startswith("c10/")
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

        def fake(cfg, strategy, seed, out_dir, opened=None):
            if (strategy, seed) in (("isfl", 4), ("fedavg", 1)):
                raise RoundFailure(2, f"{strategy} on seed {seed}")
            return []

        monkeypatch.setattr(cli_mod, "execute_run", fake)  # forked workers inherit it
        cfg = ExperimentConfig(**BASE_CONFIG)
        jobs = [(cfg, s, d, tmp_path / f"{s}_{d}") for s in ("fedavg", "isfl") for d in (4, 1)]
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
        done, failure = cli_mod.run_task([(cfg, s, 1, tmp_path / s, 0.5) for s in cfg.strategies])
        assert failure is None and len(done) == len(cfg.strategies)
        assert calls == {
            "build_experiment_data": 1,
            "local_train": len(cfg.strategies) * (cfg.rounds - 1) + 1,
        }


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


class TestBoundsCommand:
    def test_recomputes_from_log(self, tmp_path):
        cfg_path = write_config(tmp_path, strategies=["isfl"])
        out_dir = tmp_path / "runs"
        main(["run", "--config", str(cfg_path), "--out", str(out_dir)])
        run_dir = out_dir / "isfl_seed1"
        original = (run_dir / "bounds.csv").read_bytes()
        (run_dir / "bounds.csv").unlink()
        assert main(["bounds", "--run-dir", str(run_dir)]) == 0
        assert (run_dir / "bounds.csv").read_bytes() == original

    def test_missing_log_exits_2(self, tmp_path):
        assert main(["bounds", "--run-dir", str(tmp_path)]) == 2

    @pytest.mark.parametrize("header, record, where, message", [
        (True, '{"type": "round", "round": 1}', 2, "KeyError: 'lipschitz'"),
        (True, "[1, 2]", 2, "TypeError: not a JSON object"),
        (False, '{"type": "run", "p": [1.0]}', 1, "KeyError: 'p_local'"),
    ], ids=["round-missing-key", "not-an-object", "header-missing-key"])
    def test_malformed_log_exits_1_naming_the_line(
        self, tmp_path, capsys, header, record, where, message
    ):
        head = {"type": "run", "p": [0.5, 0.5], "p_local": [[0.5, 0.5]], "pi": [1.0],
                "varpi": 0.05, "eta": 0.1, "local_epochs": 1}
        log = tmp_path / "diagnostics.jsonl"
        log.write_text((json.dumps(head) + "\n" if header else "") + record + "\n")
        assert main(["bounds", "--run-dir", str(tmp_path)]) == 1
        assert capsys.readouterr().err == f"run log error: {log}, line {where}: {message}\n"


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

    def test_validation_catches_bad_strategy(self, tmp_path):
        path = write_config(tmp_path, strategies=["bogus"])
        with pytest.raises(ValueError):
            ExperimentConfig.from_file(path)

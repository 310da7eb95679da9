import dataclasses
import struct

import numpy as np
import pytest

from isfl.diagnostics import RoundRecord, RunLog, bounds_rows, write_bound_tables, write_csv
from isfl.federation import run

from test_federation import fed_config, small_problem


def rho_trajectory(log):
    """Per-round pi-weighted (realized, theory) penalties, from bounds_rows."""
    return [(row["rho_realized"], row["rho_theory"]) for row in bounds_rows(log)]


def stub_log(n_rounds=1, split=1):
    """Log of two clients with unit weights and unit curvature everywhere;
    ``split`` cuts each of its three categories into that many equal ones."""
    p = np.repeat([0.5, 0.3, 0.2], split) / split
    p_local = np.repeat([[0.8, 0.1, 0.1], [0.2, 0.5, 0.3]], split, axis=1) / split
    k, c = p_local.shape
    log = RunLog(
        p=p,
        p_local=p_local,
        pi=np.full(k, 1.0 / k),
        varpi=0.05,
        eta=1e-3,
        local_epochs=5,
    )
    for rnd in range(1, n_rounds + 1):
        log.records.append(
            RoundRecord(
                round_index=rnd,
                lipschitz=np.ones((k, c)),
                q_used=p_local.copy(),
                q_star=np.tile(p, (k, 1)),
                sigma2=np.full(k, 0.5),
                g2=1.0,
                dev2=np.full(k, 1e-6),
                loss_start=1.2,
            )
        )
    return log


def round_row(log, **fields):
    """bounds_rows' row for the log's one round, with ``fields`` set on its record."""
    (rec,) = log.records
    for name, value in fields.items():
        setattr(rec, name, value)
    (row,) = bounds_rows(log)
    return row


class TestPsi:
    """psi = eta * lbar * sum_k pi_k sigma2_k + 2 * C * g2, with lbar = 1 on
    the stub's unit curvature."""

    def test_vanishing_noise(self):
        assert round_row(stub_log(), sigma2=np.zeros(2), g2=0.0)["psi"] == 0.0

    def test_hand_evaluation(self):
        # 1e-3 * 1 * 1 + 2 * 3 * 1
        row = round_row(stub_log(), sigma2=np.ones(2), g2=1.0)
        assert row["psi"] == pytest.approx(6.001, abs=1e-12)

    def test_linear_in_category_count(self):
        three = round_row(stub_log(), sigma2=np.zeros(2), g2=2.0)["psi"]
        six = round_row(stub_log(split=2), sigma2=np.zeros(2), g2=2.0)["psi"]
        assert three == pytest.approx(12.0, rel=1e-12)
        assert six == pytest.approx(2 * three, rel=1e-12)


class TestLemma1Check:
    """A client passes when dev2_k <= 2 eta^2 T phi_k. On the stub phi_k is
    T * ((K + 1) g2 + sigma2_k + sum_l pi_l sigma2_l) = 5 * 4 = 20, so the
    bound is 2 * 1e-6 * 5 * 20 = 2e-4."""

    def test_zero_deviation_at_aggregation(self):
        assert round_row(stub_log(), dev2=np.zeros(2))["lemma1_pass_rate"] == 1.0

    def test_frozen_training(self):
        # no gradient noise: the bound is 0, and a client that did not move
        # meets it with equality, while one that moved does not
        row = round_row(stub_log(), sigma2=np.zeros(2), g2=0.0, dev2=np.array([0.0, 1e-300]))
        assert row["phi_mean"] == 0.0 and row["lemma1_pass_rate"] == 0.5

    def test_violation_reported_not_fatal(self):
        assert round_row(stub_log(), dev2=np.array([1.9e-4, 1e-6]))["lemma1_pass_rate"] == 1.0
        row = round_row(stub_log(), dev2=np.array([2.1e-4, 1e-6]))
        assert row["lemma1_pass_rate"] == 0.5
        assert row["dev_mean"] == pytest.approx(1.055e-4, rel=1e-12)


class TestRhoTrajectory:
    def test_round_one_plug_in(self):
        log = stub_log()
        realized, theory = rho_trajectory(log)[0]
        p = log.p
        expected = np.array(
            [1.0 + ((p - pk) ** 2).sum() for pk in log.p_local]
        )
        assert realized == pytest.approx(float(expected @ log.pi), rel=1e-12)
        assert theory == pytest.approx(1.0, rel=1e-12)  # q = p, unit curvature
        assert theory <= realized

    def test_theory_never_exceeds_realized_on_real_run(self):
        shards, probe, test = small_problem()
        _, log = run(shards, fed_config("isfl", n_rounds=4), test, probe=probe)
        for realized, theory in rho_trajectory(log):
            assert theory <= realized + 1e-12

    def test_empty_log_rejected(self):
        log = stub_log()
        log.records = []
        with pytest.raises(ValueError):
            rho_trajectory(log)


class TestBoundsArtifacts:
    def test_bound_terms_hand_evaluation(self):
        """eta 1e-3, T 5, unit curvature, sigma2 0.5 and g2 1 on two clients:
        psi = 1e-3 * 1 * 0.5 + 2 * 3 * 1, phi_k = 5 * (3 * 1 + 0.5 + 0.5), and
        bound_rhs = head + psi + 2e-6 * sum_k pi_k rho_k * 10 * 4, where
        rho_realized is 1.14 and the head 2 * (1.2 - 1.0) / (1e-3 * 5) is 80
        in round 1 and 0 in round 2, whose loss is the best."""
        log = stub_log(n_rounds=2)
        log.records[1].loss_start = 1.0
        rows = bounds_rows(log)
        assert [row["psi"] for row in rows] == pytest.approx([6.0005] * 2, rel=1e-12)
        assert [row["phi_mean"] for row in rows] == pytest.approx([20.0] * 2, rel=1e-12)
        assert [row["rho_realized"] for row in rows] == pytest.approx([1.14] * 2, rel=1e-12)
        assert [row["bound_rhs"] for row in rows] == pytest.approx(
            [86.0005912, 6.0005912], rel=1e-12
        )

    def test_phi_mean_hand_evaluation(self):
        # per-epoch term (K+1) * 1 + 1 + 1 = 5 over two epochs
        log = stub_log()
        log.local_epochs = 2
        log.records[0].sigma2 = np.ones(2)
        assert bounds_rows(log)[0]["phi_mean"] == pytest.approx(10.0, abs=1e-12)

    def test_rows_and_csv(self, tmp_path):
        shards, probe, test = small_problem()
        _, log = run(shards, fed_config("isfl", n_rounds=3), test, probe=probe)
        rows = bounds_rows(log)
        assert len(rows) == 3
        for row in rows:
            assert 0.0 <= row["lemma1_pass_rate"] <= 1.0
            assert np.isfinite(row["bound_rhs"]) and row["bound_rhs"] > 0.0
            assert row["rho_theory"] <= row["rho_realized"] + 1e-12

        bounds_path, long_path = write_bound_tables(rows, tmp_path)
        assert (bounds_path, long_path) == (tmp_path / "bounds.csv", tmp_path / "long.csv")
        lines = bounds_path.read_text().splitlines()
        assert lines[0] == (
            "round,rho_realized,rho_theory,psi,phi_mean,dev_mean,lemma1_pass_rate"
        )
        assert len(lines) == 4
        assert "nan" not in bounds_path.read_text().lower()

        header = long_path.read_text().splitlines()[0]
        assert header == "round,series,client,value"

    def test_csv_cells_of_every_kind_the_program_writes(self, tmp_path):
        """None is a blank, an integer its digits, a float the shortest decimal
        that reads back bit-equal, and a string as it is, unquoted."""
        floats = [0.1 + 0.2, np.float64(0.1 + 0.2), -0.0, 1e16, 5e-324]
        path = tmp_path / "cells.csv"
        write_csv(path, "a,b", [
            [None, 3, np.int64(3)], floats, ["0.000123", "rho_realized"],
        ])
        text = path.read_text(encoding="utf-8")
        assert text == (
            "a,b\n,3,3\n0.30000000000000004,0.30000000000000004,-0.0,1e+16,5e-324\n"
            "0.000123,rho_realized\n"
        )
        cells = text.splitlines()[2].split(",")
        for cell, value in zip(cells, floats, strict=True):
            assert struct.pack("<d", float(cell)) == struct.pack("<d", value), cell

    def test_jsonl_round_trip(self, tmp_path):
        """Every field of the header and of every record, each dataclass field
        rather than each entry of the field lists, survives save and load,
        and saving the loaded log writes the same bytes."""
        shards, probe, test = small_problem()
        _, log = run(shards, fed_config("isfl", n_rounds=2), test, probe=probe)
        path = tmp_path / "diagnostics.jsonl"
        log.save_jsonl(path)
        back = RunLog.load_jsonl(path)
        assert len(back.records) == len(log.records) == 2
        pairs = [(back, log), *zip(back.records, log.records)]
        for loaded, saved in pairs:
            for f in dataclasses.fields(saved):
                if f.name != "records":
                    a, b = getattr(loaded, f.name), getattr(saved, f.name)
                    assert type(a) is type(b), f.name
                    assert np.asarray(a).tobytes() == np.asarray(b).tobytes(), f.name
        again = tmp_path / "again.jsonl"
        back.save_jsonl(again)
        assert again.read_bytes() == path.read_bytes()
        # trajectories recomputed from disk match in-memory ones
        assert rho_trajectory(back) == rho_trajectory(log)

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "junk.jsonl"
        path.write_text('{"type": "round"}\n')
        with pytest.raises(ValueError):
            RunLog.load_jsonl(path)


class TestQualitativeTrend:
    def test_rho_theory_nonincreasing_on_most_desk_runs(self):
        """Qualitative trend check: the per-round optimum penalty should drift
        down as training settles, in at least 4 of 5 seeded desk runs.

        The statistic is the least-squares slope of the pi-weighted rho_theory
        against the round index over all 8 rounds; a run counts when the slope
        is <= 0. A per-step non-increase would be the wrong statistic: the
        max-ratio curvature estimates move by about +-60% from one round to
        the next, so single steps go up even while the trajectory falls. The
        same slope is positive on every seed of the acceptance trend fixture
        (eta 0.15, 20 rounds), whose curvature estimates do grow, so the check
        can fail.
        """
        good = 0
        for seed in range(5):
            shards, probe, test = small_problem(seed=10 * seed)
            _, log = run(shards, fed_config("isfl", n_rounds=8, seed=seed), test, probe=probe)
            theory = [t for _, t in rho_trajectory(log)]
            slope = np.polyfit(np.arange(1, len(theory) + 1), theory, 1)[0]
            good += slope <= 0.0
        assert good >= 4

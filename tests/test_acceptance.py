"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

The trend experiments (criteria 6 to 9) share one desk-scale setup: five
imbalanced Gaussian-blob classes, ten clients with two 100-sample shards each
at non-i.i.d. ratio 0.9, twenty rounds of five local epochs on a 16-unit MLP.
All runs for those criteria come from one session-scoped fixture so the whole
gate stays inside the stated runtime budgets.
"""

import json
import multiprocessing
import time
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest

import conftest
from isfl.cli import main as cli_main, usable_cpus
from isfl.data import (
    CategoryDistribution,
    PartitionConfig,
    generate_synthetic,
    select_probe_set,
    sort_and_partition,
)
from isfl.diagnostics import RunLog, bounds_rows
from isfl.federation import (
    FederationConfig,
    aggregate,
    derive_seed,
    run,
)
from isfl.isweights import (
    compute_alpha,
    compute_gamma_star,
    rho,
    solve_is_weights,
    uniform_plan,
)
from isfl.model import ModelSpec, evaluate, init_params, mean_grads
from isfl.trainer import TrainerConfig, local_train
from oracles import brute_force_rho_min, kkt_partials


def report(criterion, ok, detail):
    line = f"[criterion {criterion}] {'PASS' if ok else 'FAIL'} - {detail}"
    print("\n" + line)
    conftest.CRITERION_LINES.append(line)
    return ok


def feasible_instance(rng, n_classes, varpi):
    """Random instance satisfying the floor hypothesis p_j >= varpi * p_local_j."""
    while True:
        p = rng.dirichlet(np.ones(n_classes))
        pk = rng.dirichlet(np.ones(n_classes))
        if np.all(p >= varpi * pk) and np.all(p > 1e-4):
            return (
                CategoryDistribution(p),
                CategoryDistribution(pk),
                rng.uniform(0.05, 3.0, size=n_classes),
            )


# ---------------------------------------------------------------- criteria 1-5


def test_criterion_1_solver_oracle_equivalence():
    rng = np.random.default_rng(2024)
    t0 = time.perf_counter()
    worst = -np.inf
    for _ in range(50):
        c = int(rng.integers(2, 5))
        varpi = float(rng.choice([0.01, 0.05]))
        p, pk, l_row = feasible_instance(rng, c, varpi)
        plan = solve_is_weights(p, pk, l_row, varpi)
        _, rho_oracle = brute_force_rho_min(p, pk, l_row, varpi, 0.005)
        rel = (rho(plan.q, p, l_row) - rho_oracle) / rho_oracle
        worst = max(worst, rel)
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-3 and elapsed < 60.0
    assert report(
        1, ok,
        f"50 instances, worst rho excess over grid oracle {worst:.2e} "
        f"(tol 1e-3), runtime {elapsed:.1f}s (< 60s)",
    )


def test_criterion_2_alpha_invariants():
    rng = np.random.default_rng(7)
    worst_sum, worst_norm = 0.0, 0.0
    degenerate = 0
    for _ in range(1000):
        row = rng.uniform(0.01, 5.0, size=int(rng.integers(2, 9)))
        alpha = compute_alpha(row)
        if not alpha.any():
            degenerate += 1
            continue
        worst_sum = max(worst_sum, abs(alpha.sum()))
        worst_norm = max(worst_norm, abs((alpha**2).sum() - 1.0))
    ok = worst_sum <= 1e-9 and worst_norm <= 1e-9
    assert report(
        2, ok,
        f"1000 rows ({degenerate} degenerate): |sum| <= {worst_sum:.1e}, "
        f"|sum sq - 1| <= {worst_norm:.1e} (tol 1e-9)",
    )


def test_criterion_3_feasibility_and_worked_instance():
    rng = np.random.default_rng(31)
    ok = True
    for _ in range(200):
        c = int(rng.integers(2, 6))
        varpi = float(rng.choice([0.01, 0.05]))
        p, pk, l_row = feasible_instance(rng, c, varpi)
        plan = solve_is_weights(p, pk, l_row, varpi)
        ok &= abs(plan.q.probs.sum() - 1.0) <= 1e-9
        ok &= bool(np.all(plan.q.probs >= varpi * pk.probs - 1e-12))

    p3 = CategoryDistribution(np.array([0.5, 0.3, 0.2]))
    pk3 = CategoryDistribution(np.array([0.8, 0.1, 0.1]))
    l3 = np.array([1.0, 2.0, 3.0])
    plan = solve_is_weights(p3, pk3, l3, 0.05)
    gamma = compute_gamma_star(p3, pk3, compute_alpha(l3), 0.05)
    ok &= abs(gamma - 0.2572) <= 1e-4
    ok &= plan.q.probs[2] == 0.05 * 0.1
    assert report(
        3, ok,
        f"200 random plans feasible; worked instance gamma*={gamma:.4f} "
        f"(~0.2572), q3={plan.q.probs[2]!r} exactly at its floor",
    )


def test_criterion_4_kkt_stationarity():
    rng = np.random.default_rng(13)
    worst = 0.0
    checked = 0
    while checked < 50:
        c = int(rng.integers(3, 6))
        varpi = float(rng.choice([0.01, 0.05]))
        p, pk, l_row = feasible_instance(rng, c, varpi)
        plan = solve_is_weights(p, pk, l_row, varpi)
        free = plan.q.probs > varpi * pk.probs + 1e-9
        if free.sum() < 2:
            continue
        parts = kkt_partials(plan.q, p, l_row)[free]
        worst = max(worst, (parts.max() - parts.min()) / np.abs(parts).max())
        checked += 1
    ok = worst <= 1e-6
    assert report(
        4, ok,
        f"50 instances with >= 2 free categories: worst relative partial "
        f"spread {worst:.1e} (tol 1e-6)",
    )


def test_criterion_5_gradient_correctness():
    from isfl.data import Dataset

    specs = [
        ModelSpec(6, (), 3),
        ModelSpec(5, (8,), 4, activation="relu"),
        ModelSpec(5, (7,), 3, activation="tanh"),
    ]
    t0 = time.perf_counter()
    worst = 0.0
    for trial in range(20):
        spec = specs[trial % len(specs)]
        rng = np.random.default_rng(500 + trial)
        params = init_params(spec, seed=trial)
        batch = Dataset(
            rng.standard_normal((6, spec.input_dim)),
            rng.integers(0, spec.n_classes, size=6),
            spec.n_classes,
        )
        grad = mean_grads(spec, params, batch.features, batch.labels)
        fd = np.zeros_like(grad)
        eps = 1e-5
        for i in range(grad.size):
            up = params.copy()
            up[i] += eps
            down = params.copy()
            down[i] -= eps
            fd[i] = (evaluate(spec, up, batch)[0] - evaluate(spec, down, batch)[0]) / (2 * eps)
        worst = max(worst, np.linalg.norm(grad - fd) / np.linalg.norm(fd))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-4 and elapsed < 10.0
    assert report(
        5, ok,
        f"20 seeded pairs: max relative error {worst:.2e} (tol 1e-4), "
        f"runtime {elapsed:.1f}s (< 10s)",
    )


# ------------------------------------------------------- trend setup (6 to 9)

TREND_SEEDS = [0, 100, 200, 300, 400]
TREND_COUNTS = [600, 500, 400, 300, 200]    # pooled mix [.3, .25, .2, .15, .1]
HOLDOUT_PER_CLASS = 100
TEST_PER_CLASS = 200
TREND_MODEL = ModelSpec(20, (16,), 5)
TREND_SEPARATION = 1.2
TREND_ETA = 0.15
TREND_BATCH = 16


def trend_data(seed):
    """Imbalanced blob source split into train pool, holdout, and test set."""
    per_class = max(TREND_COUNTS) + HOLDOUT_PER_CLASS + TEST_PER_CLASS
    source = generate_synthetic(5, per_class, 20, TREND_SEPARATION, seed=seed)
    rng = np.random.default_rng(seed + 1)
    tr, ho, te = [], [], []
    for c in range(5):
        pool = np.flatnonzero(source.labels == c)
        rng.shuffle(pool)
        te.append(pool[:TEST_PER_CLASS])
        ho.append(pool[TEST_PER_CLASS : TEST_PER_CLASS + HOLDOUT_PER_CLASS])
        start = TEST_PER_CLASS + HOLDOUT_PER_CLASS
        tr.append(pool[start : start + TREND_COUNTS[c]])
    return (
        source.subset(np.concatenate(tr)),
        source.subset(np.concatenate(ho)),
        source.subset(np.concatenate(te)),
    )


def trend_run(seed, strategy, varpi=0.05, sampling_ratio=1.0, recorder=None):
    train, holdout, test = trend_data(seed)
    part = PartitionConfig(
        n_clients=10, shard_size=100, shards_per_client=2, nr=0.9, seed=seed + 2
    )
    shards = sort_and_partition(train, part)
    probe = select_probe_set(holdout, 500, seed=seed + 3)
    cfg = FederationConfig(
        model=TREND_MODEL,
        trainer=TrainerConfig(
            batch_size=TREND_BATCH, local_epochs=5, eta=TREND_ETA,
            sampling_ratio=sampling_ratio,
        ),
        n_rounds=20,
        strategy=strategy,
        varpi=varpi,
        seed=seed + 4,
    )
    return run(shards, cfg, test, probe=probe, recorder=recorder)


def trend_job(seed, strategy, varpi, sampling_ratio, record):
    """One trend run in a worker: its final pooled accuracy, plus its RunLog
    if ``record``."""
    recorder = RunLog() if record else None
    metrics = trend_run(seed, strategy, varpi, sampling_ratio, recorder)
    return metrics[-1].acc_pool, recorder


@pytest.fixture(scope="module")
def trend_results():
    t0 = time.perf_counter()
    jobs = []  # (seed, strategy, varpi, sampling_ratio, record)
    for seed in TREND_SEEDS:
        jobs += [(seed, s, 0.05, 1.0, s == "isfl") for s in ("fedavg", "rw_is", "isfl")]
        jobs.append((seed, "isfl", 0.01, 1.0, False))
        jobs += [(seed, s, 0.05, 0.25, False) for s in ("fedavg", "isfl")]
    # One forked worker per CPU, as ``isfl run`` uses: a spawned worker would
    # re-import numpy and this module. ``map`` returns the results in job order.
    with ProcessPoolExecutor(
        max_workers=usable_cpus(),
        mp_context=multiprocessing.get_context("fork"),
    ) as pool:
        results = list(pool.map(trend_job, *zip(*jobs)))
    out = {"acc": {}, "logs": {}, "elapsed": None}
    for (seed, strategy, varpi, ratio, record), (acc, recorder) in zip(jobs, results):
        out["acc"][(strategy, seed, varpi, ratio)] = acc
        if record:
            out["logs"][seed] = recorder
    out["elapsed"] = time.perf_counter() - t0
    return out


def test_criterion_6_trend_ordering(trend_results):
    """ISFL beats FedAvg by 5 points of pooled accuracy on 4 of 5 seeds.

    Known red on this fixture, which has no non-i.i.d. deficit for local
    sampling to recover. FedAvg's final pooled accuracy (0.564, 0.546, 0.564,
    0.595, 0.537) is within 1.9 points of the Bayes-optimal classifier of the
    known blob model on the same pool (0.583, 0.539, 0.570, 0.602, 0.543), and
    its held-out accuracy (0.476, 0.428, 0.439, 0.483, 0.455) matches plain
    i.i.d. SGD on the pooled data with the same model, batch, eta and 12,500
    steps (about 0.42-0.50). ISFL minus FedAvg is -1.2, -0.5, +0.6, -3.2 and
    -1.1 points. The ordering comes from the paper's CIFAR-10 CNN runs. The
    fixture and threshold stay until there is a fixture with a measured FedAvg
    versus i.i.d. SGD deficit, chosen on that deficit alone, or CIFAR-10 is in
    the repository.
    """
    acc = trend_results["acc"]
    beats_fedavg = beats_rw = 0
    rows = []
    for seed in TREND_SEEDS:
        fed = acc[("fedavg", seed, 0.05, 1.0)]
        rw = acc[("rw_is", seed, 0.05, 1.0)]
        isfl = acc[("isfl", seed, 0.05, 1.0)]
        beats_fedavg += (isfl - fed) >= 0.05
        beats_rw += isfl >= rw
        rows.append(f"seed {seed}: fedavg={fed:.3f} rw={rw:.3f} isfl={isfl:.3f}")
    elapsed = trend_results["elapsed"]
    ok = beats_fedavg >= 4 and beats_rw >= 3 and elapsed < 600.0
    assert report(
        6, ok,
        f"isfl beats fedavg by >=5pts on {beats_fedavg}/5 (need 4), "
        f"isfl >= rw on {beats_rw}/5 (need 3), trend runs {elapsed:.0f}s "
        f"(< 600s); {'; '.join(rows)}",
    )


def test_criterion_7_rho_trajectory(trend_results):
    ok = True
    details = []
    for seed in TREND_SEEDS:
        trajectory = [
            (row["rho_realized"], row["rho_theory"])
            for row in bounds_rows(trend_results["logs"][seed])
        ]
        monotone = all(theory <= realized + 1e-12 for realized, theory in trajectory)
        gap_first = trajectory[0][0] - trajectory[0][1]
        gap_last = trajectory[-1][0] - trajectory[-1][1]
        ok &= monotone and gap_first > 0 and gap_last <= 0.2 * gap_first
        details.append(f"seed {seed}: gap {gap_first:.3f} -> {gap_last:.3f}")
    assert report(
        7, ok,
        "theory <= realized every round and final gap <= 20% of round-1 gap; "
        + "; ".join(details),
    )


def test_criterion_8_varpi_insensitivity(trend_results):
    acc = trend_results["acc"]
    close = 0
    diffs = []
    for seed in TREND_SEEDS:
        diff = abs(
            acc[("isfl", seed, 0.05, 1.0)] - acc[("isfl", seed, 0.01, 1.0)]
        ) * 100
        close += diff <= 3.0
        diffs.append(f"{diff:.1f}")
    ok = close >= 3
    assert report(
        8, ok,
        f"|acc(0.05) - acc(0.01)| <= 3pts on {close}/5 seeds (need 3); "
        f"diffs [{', '.join(diffs)}] pts",
    )


def test_criterion_9_sampling_ratio_robustness(trend_results):
    """ISFL loses less pooled accuracy than FedAvg when the sampling ratio
    falls from 1.0 to 0.25, on 3 of 5 seeds.

    Known red on this fixture: FedAvg already reaches its full accuracy on a
    quarter of the samples (its drop is -0.4 to +1.2 points), so there is no
    degradation to be robust against; ISFL drops 0.2 to 3.9 points. Like
    criterion 6 it waits for a fixture with a measured FedAvg versus i.i.d.
    SGD deficit, or for CIFAR-10.
    """
    acc = trend_results["acc"]
    wins = 0
    rows = []
    for seed in TREND_SEEDS:
        drop_fed = acc[("fedavg", seed, 0.05, 1.0)] - acc[("fedavg", seed, 0.05, 0.25)]
        drop_isfl = acc[("isfl", seed, 0.05, 1.0)] - acc[("isfl", seed, 0.05, 0.25)]
        wins += drop_isfl < drop_fed
        rows.append(f"seed {seed}: drops isfl {drop_isfl*100:+.1f} fed {drop_fed*100:+.1f}")
    ok = wins >= 3
    assert report(
        9, ok,
        f"isfl drop < fedavg drop (SR 1.0 -> 0.25) on {wins}/5 seeds (need 3); "
        + "; ".join(rows),
    )


# ------------------------------------------------------------- criteria 10, 11


def test_criterion_10_byte_determinism(tmp_path):
    config = {
        "classes": 3, "per_class": 80, "dim": 4, "separation": 2.0,
        "test_size": 30, "holdout_size": 30,
        "clients": 2, "shard_size": 20, "shards_per_client": 2, "nr": 0.8,
        "hidden_dims": [4], "batch_size": 16, "local_epochs": 2, "eta": 0.05,
        "rounds": 3, "strategies": ["fedavg", "isfl"], "varpi": 0.05,
        "probe_size": 20, "seeds": [1],
    }
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(config))
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert cli_main(["run", "--config", str(cfg_path), "--out", str(out_a)]) == 0
    assert cli_main(["run", "--config", str(cfg_path), "--out", str(out_b)]) == 0
    ok = True
    compared = 0
    for run_dir in ("fedavg_seed1", "isfl_seed1"):
        for name in ("metrics.csv", "manifest.json", "bounds.csv", "diagnostics.jsonl"):
            path_a = out_a / run_dir / name
            if not path_a.exists():
                continue
            ok &= path_a.read_bytes() == (out_b / run_dir / name).read_bytes()
            compared += 1
    assert report(
        10, ok and compared >= 4,
        f"{compared} artifacts byte-identical across reruns of the same config+seed",
    )


def test_criterion_11_single_client_reduction():
    source = generate_synthetic(3, 120, 5, separation=2.0, seed=5)
    part = PartitionConfig(n_clients=1, shard_size=40, shards_per_client=2, nr=0.8, seed=6)
    shards = sort_and_partition(source, part)
    test_set = generate_synthetic(3, 30, 5, separation=2.0, seed=7)
    cfg = FederationConfig(
        model=ModelSpec(5, (4,), 3),
        trainer=TrainerConfig(batch_size=16, local_epochs=2, eta=0.05),
        n_rounds=4,
        strategy="fedavg",
        seed=11,
    )
    metrics = run(shards, cfg, test_set)

    # centralized replay: identical seeds, trivial aggregation
    params = init_params(cfg.model, seed=derive_seed(cfg.seed, 0))
    plan = uniform_plan(shards[0].local_distribution)
    ok = True
    for rnd in range(1, 5):
        seed = derive_seed(cfg.seed, 1, rnd, 0)
        stack = local_train(cfg.model, params, shards, [plan], cfg.trainer, [seed])
        params = aggregate(stack, np.array([1.0]))
        loss, acc_pool = evaluate(cfg.model, params, shards[0].dataset.subset(shards[0].indices))
        _, acc_test = evaluate(cfg.model, params, test_set)
        m = metrics[rnd - 1]
        ok &= (m.train_loss == loss) and (m.acc_pool == acc_pool) and (m.acc_test == acc_test)
    assert report(
        11, ok,
        "single-client federated trajectory matches centralized replay bitwise "
        "over 4 rounds",
    )

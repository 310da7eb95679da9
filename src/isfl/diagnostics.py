"""Convergence-bound components recomputed from run logs.

Per aggregation round the orchestrator records the curvature matrix in effect
(round 1, which has none, gets the first estimate; see RoundRecord), the plan
in effect, the optimum for that curvature, noise statistics, and parameter
deviations. Everything here is read-only post-processing over those records:
``bounds_rows`` scores a log once, each term of the bound once per round, for
bounds.csv, long.csv and the rho columns of metrics.csv.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .data import CategoryDistribution, is_integer, is_number
from .isweights import rho


@dataclass
class RoundRecord:
    """State logged at one aggregation: in-effect curvature, plans, noise, deviations.

    Round 1 trains under unit weights before any curvature estimate exists, so
    its record carries the first estimate, made at its own aggregation: its
    ``lipschitz`` equals round 2's and its ``q_star`` is round 2's plan.
    """

    round_index: int
    lipschitz: np.ndarray          # K x C, rows the plans in effect were solved from
    q_used: np.ndarray             # K x C, plan in effect during the round
    q_star: np.ndarray             # K x C, optimum for this curvature
    sigma2: np.ndarray             # per client, E||g_B - gbar_k||^2 of a uniform batch
    g2: float                      # max over clients of E||g_B||^2, the G^2 plug-in
    dev2: np.ndarray               # per-client ||local - aggregated||^2
    loss_start: float              # pooled train loss at round start


# The fields of the run header and of a round record after its index, as
# save_jsonl writes and load_jsonl reads them, each with its shape in clients K
# and categories C: "KC" a K x C matrix, "K" or "C" a vector, "" one number.
HEADER_FIELDS = {"p": "C", "p_local": "KC", "pi": "K", "varpi": "", "eta": ""}
ROUND_FIELDS = {
    "lipschitz": "KC", "q_used": "KC", "q_star": "KC", "sigma2": "K", "g2": "", "dev2": "K",
    "loss_start": "",
}


@dataclass
class RunLog:
    """Run-level constants plus one record per aggregation round."""

    p: np.ndarray
    p_local: np.ndarray    # K x C
    pi: np.ndarray
    varpi: float
    eta: float
    local_epochs: int
    records: list[RoundRecord] = field(default_factory=list)

    def save_jsonl(self, path: str | Path) -> None:
        with open(path, "w", encoding="utf-8") as f:
            header = {"type": "run", "local_epochs": self.local_epochs}
            f.write(_json_line(header, self, HEADER_FIELDS))
            for rec in self.records:
                row = {"type": "round", "round": rec.round_index,
                       "epoch_tag": rec.round_index * self.local_epochs}
                f.write(_json_line(row, rec, ROUND_FIELDS))

    @classmethod
    def load_jsonl(cls, path: str | Path) -> "RunLog":
        """Read a log written by save_jsonl. A line that is not a JSON object,
        lacks a field or holds a value save_jsonl cannot write raises
        ValueError naming the line: every field of HEADER_FIELDS and
        ROUND_FIELDS must hold finite JSON numbers in its shape, eta > 0,
        varpi in [0, 1), local_epochs >= 1, every record after the header
        must be of type "round", and the rounds must be the JSON integers
        1, 2, ... in order."""
        log = None
        with open(path, "r", encoding="utf-8") as f:
            for number, line in enumerate(f, 1):
                if not line.strip():
                    continue
                try:
                    row = json.loads(line)
                    if not isinstance(row, dict):
                        raise TypeError("not a JSON object")
                    if log is None:
                        if row.get("type") != "run":
                            raise ValueError("missing run header record")
                        sizes = {"K": len(row["p_local"]), "C": len(row["p"])}
                        epochs = row["local_epochs"]
                        log = cls(**_read_fields(row, HEADER_FIELDS, sizes), local_epochs=epochs)
                        if not log.eta > 0.0:
                            raise ValueError(f"eta must be positive (got {log.eta!r})")
                        if not 0.0 <= log.varpi < 1.0:
                            raise ValueError(f"varpi must lie in [0, 1) (got {log.varpi!r})")
                        if not is_integer(epochs) or epochs < 1:
                            raise ValueError(f"local_epochs must be an integer >= 1 (got {epochs})")
                    elif row.get("type") != "round":
                        kind = row.get("type")
                        raise ValueError(f"type must be 'round' after the header (got {kind!r})")
                    else:
                        index, expected = row["round"], len(log.records) + 1
                        if not is_integer(index) or index != expected:
                            raise ValueError(f"round must be {expected} (got {index!r})")
                        fields = _read_fields(row, ROUND_FIELDS, sizes)
                        log.records.append(RoundRecord(round_index=index, **fields))
                except (KeyError, TypeError, ValueError, OverflowError) as exc:
                    name = exc.__class__.__name__
                    raise ValueError(f"{path}, line {number}: {name}: {exc}") from exc
        if log is None:
            raise ValueError(f"{path}: missing run header record")
        return log


def _json_line(row: dict, source, fields: dict) -> str:
    """``row`` and the ``fields`` of ``source`` as one line of JSON."""
    row.update((name, np.asarray(getattr(source, name)).tolist()) for name in fields)
    return json.dumps(row, sort_keys=True) + "\n"


def _read_fields(row: dict, fields: dict, sizes: dict) -> dict:
    """Each of ``fields`` read from ``row`` by _finite, at its shape in ``sizes``."""
    return {name: _finite(row, name, tuple(map(sizes.get, dims))) for name, dims in fields.items()}


def _finite(row: dict, key: str, shape: tuple[int, ...]) -> np.ndarray | float:
    """``row[key]`` as a float64 array (a float for shape ()); ValueError unless
    it has ``shape`` and only JSON numbers as entries, all finite (Python's
    json reads NaN and Infinity)."""
    value = np.asarray(row[key], dtype=object)
    if value.shape != shape:
        raise ValueError(f"{key} has shape {value.shape}, expected {shape}")
    for entry in value.flat:
        if not is_number(entry):
            raise ValueError(f"{key} holds {entry!r}, which is not a number")
    value = value.astype(np.float64)
    if not np.all(np.isfinite(value)):
        raise ValueError(f"{key} must be finite")
    return value if shape else float(value)


# The per-round series of bounds_rows: bounds.csv has a column for every
# one but the last, bound_rhs; long.csv has rows for all of them.
BOUND_SERIES = (
    "rho_realized", "rho_theory", "psi", "phi_mean", "dev_mean", "lemma1_pass_rate", "bound_rhs",
)


def bounds_rows(log: RunLog) -> list[dict]:
    """One summary row per round for bounds.csv, long.csv and the rho columns
    of metrics.csv, with the per-client deviations under ``dev2``.

    Each term of the bound over a round's T = local_epochs epochs is computed
    once, from the round's in-effect curvature L:
    - rho_realized, rho_theory: rho of the plan in effect and of the optimum,
      pi-weighted over clients;
    - psi, the aggregation noise: eta * lbar * sum_k pi_k sigma2_k + 2 C g2,
      with lbar the p-weighted mean of the pi-weighted L;
    - phi_mean: the client mean of the drift phi_k at the window's end, T
      times the per-epoch term (K+1) g2 + sigma2_k + sum_l pi_l sigma2_l,
      which the round's constants hold fixed;
    - drift: sum_k pi_k rho_k times phi_k summed over the epochs 0 .. T-1;
    - head, the optimisation term: 2 (F(w_start) - F*) / (eta T), the run's
      best loss standing in for the unknowable F*;
    - bound_rhs = head + psi + (2 eta^2 T / T) drift, reported, never asserted.

    The Lemma-1 pass rate is the share of clients whose deviation is within
    the drift bound 2 eta^2 T phi_k. Violations are expected occasionally,
    because the noise constants are plug-in estimates, so they are reported,
    never raised. ValueError names the round and the first series of a row
    that is not finite, or the key of a p that is not a distribution or of
    an eta and local_epochs whose drift terms overflow a float.
    """
    if not log.records:
        raise ValueError("run log has no round records")
    try:
        p = CategoryDistribution(log.p)
    except ValueError as exc:
        raise ValueError(f"p: {exc}") from exc
    t = log.local_epochs
    try:
        lemma1_scale = 2.0 * log.eta**2 * t     # 2 eta^2 T
        window = t * (t - 1) / 2.0              # sum of the epochs 0 .. T-1
    except OverflowError as exc:
        raise ValueError(
            f"eta {log.eta!r} and local_epochs {t} put the drift terms beyond a float: {exc}"
        ) from exc
    best_loss = min(rec.loss_start for rec in log.records)
    rows = []
    # a term that overflows is named by the finiteness check below, not warned of
    with np.errstate(over="ignore", invalid="ignore"):
        for rec in log.records:
            realized = rho(rec.q_used, p, rec.lipschitz)
            lbar = float(log.p @ (log.pi @ rec.lipschitz))
            psi = float(log.eta * lbar * (rec.sigma2 @ log.pi) + 2.0 * log.p.size * rec.g2)
            per_epoch = (log.pi.size + 1) * rec.g2 + rec.sigma2 + float(rec.sigma2 @ log.pi)
            phis = t * per_epoch
            drift = float(np.sum(log.pi * realized * (per_epoch * window)))
            head = 2.0 * max(rec.loss_start - best_loss, 0.0) / (log.eta * t)
            row = {
                "round": rec.round_index,
                "rho_realized": float(realized @ log.pi),
                "rho_theory": float(rho(rec.q_star, p, rec.lipschitz) @ log.pi),
                "psi": psi,
                "phi_mean": float(phis.mean()),
                "dev_mean": float(rec.dev2.mean()),
                "lemma1_pass_rate": float(np.mean(rec.dev2 <= lemma1_scale * phis)),
                # (2 eta^2 T) / T rather than 2 eta^2 keeps the recorded bytes
                "bound_rhs": head + psi + (lemma1_scale / t) * drift,
                "dev2": rec.dev2,
            }
            for series in BOUND_SERIES:
                if not np.isfinite(row[series]):
                    value = row[series]
                    raise ValueError(f"round {rec.round_index}: {series} is {value!r}, not finite")
            rows.append(row)
    return rows


def write_csv(path: str | Path, header: str, rows) -> None:
    """``header`` and then one line per row of ``rows``. A string or an
    integer cell is written as it is, None as a blank, and any other number
    as ``repr(float(x))``, a plain decimal that reads back as the same float."""
    with open(path, "w", encoding="utf-8") as f:
        f.write(header + "\n")
        for row in rows:
            f.write(",".join(map(_cell, row)) + "\n")


def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, (str, int, np.integer)):
        return str(value)
    return repr(float(value))


def write_bound_tables(rows: list[dict], run_dir: str | Path) -> tuple[Path, Path]:
    """bounds.csv and the plot-ready long.csv (BOUND_SERIES per round, then dev2
    per client) of the bounds ``rows``, in ``run_dir``; returns their paths."""
    bounds, long = Path(run_dir, "bounds.csv"), Path(run_dir, "long.csv")
    columns = ("round", *BOUND_SERIES[:-1])
    write_csv(bounds, ",".join(columns), ([r[c] for c in columns] for r in rows))
    write_csv(long, "round,series,client,value", [
        *((r["round"], s, None, r[s]) for r in rows for s in BOUND_SERIES),
        *((r["round"], "dev2", k, dev2) for r in rows for k, dev2 in enumerate(r["dev2"])),
    ])
    return bounds, long

"""Per-(client, category) gradient-curvature estimates and SGD noise statistics.

The curvature row for a client measures, per category, the largest ratio of
per-sample gradient change to parameter change between that client's model and
the aggregated one. ``estimate_lipschitz`` takes all clients at once, as the
(K, P) parameter stack of a round, and backpropagates the aggregate over the
probe once for all of them. Each gradient change is an outer-product sum per
layer, so its norm comes from row dot products of activations and deltas, in
difference form, without forming any per-sample gradient. The sampling-weight
solver consumes these rows; the noise statistics feed diagnostics only.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .data import Dataset
from .model import (
    ModelSpec,
    check_batch,
    mean_grads,
    per_sample_grad_change_norms,
    per_sample_pass,
)

logger = logging.getLogger(__name__)


class ZeroDeviationError(ValueError):
    """Local and aggregated parameters coincide; the curvature ratio is 0/0."""


@dataclass(frozen=True)
class GradientStats:
    """Plug-in estimates of minibatch-gradient variance and squared norm bound."""

    sigma2: float
    g2: float

    def __post_init__(self):
        if not (np.isfinite(self.sigma2) and np.isfinite(self.g2)):
            raise ValueError("estimates must be finite")
        if self.sigma2 < 0.0 or self.g2 < 0.0:
            raise ValueError("estimates must be non-negative")


def lipschitz_row(
    diff_norms: np.ndarray,
    labels: np.ndarray,
    n_classes: int,
    deviation_norm: float,
) -> np.ndarray:
    """Per-category max of gradient-difference norms over the deviation norm.

    ``diff_norms[n]`` is the norm of sample n's gradient change; categories
    with no samples are filled with the mean of the present entries.
    """
    if deviation_norm <= 0.0:
        raise ZeroDeviationError("parameter deviation norm must be positive")
    row = np.full(n_classes, np.nan)
    for c in range(n_classes):
        mask = labels == c
        if mask.any():
            row[c] = diff_norms[mask].max() / deviation_norm
    missing = np.isnan(row)
    if missing.all():
        raise ValueError("no samples at all; cannot estimate any category")
    if missing.any():
        logger.warning(
            "categories %s absent from probe; filling with the row mean",
            np.flatnonzero(missing).tolist(),
        )
        row[missing] = row[~missing].mean()
    return row


def estimate_lipschitz(
    spec: ModelSpec,
    local_stack: np.ndarray,
    global_params: np.ndarray,
    probe: Dataset,
    previous: np.ndarray,
) -> np.ndarray:
    """Curvature rows of all K clients from a probe set, as a (K, C) array.

    Row k compares client k's parameters, row k of ``local_stack``, with the
    aggregate ``global_params``. Costs one backward pass over the probe for
    the aggregate and one per client, K + 1 in all. The norm of each probe
    sample's gradient change comes from row dot products of two passes'
    activations and deltas (``per_sample_grad_change_norms``), so no
    per-sample gradient is ever formed. A client whose parameters equal the
    aggregate has no curvature ratio (0/0): it keeps its row of ``previous``,
    with a warning, and costs no pass. Raises ValueError when a deviation or
    a pass is not finite.
    """
    rows = previous.copy()
    base = None
    for k, local in enumerate(local_stack):
        deviation = float(np.linalg.norm(local - global_params))
        if deviation == 0.0:
            logger.warning("client %d: zero deviation, keeping its previous row", k)
            continue
        if not np.isfinite(deviation):
            raise ValueError("parameter deviation is not finite; the run diverged")
        if base is None:
            base = per_sample_pass(spec, global_params, probe)
        diff_norms = per_sample_grad_change_norms(per_sample_pass(spec, local, probe), base)
        rows[k] = lipschitz_row(diff_norms, probe.labels, probe.n_classes, deviation)
    return rows


def estimate_sgd_stats(
    spec: ModelSpec,
    params: np.ndarray,
    probe: Dataset,
    batch_size: int,
    n_draws: int,
    seed: int = 0,
) -> GradientStats:
    """Empirical minibatch-gradient spread: sigma2 is the mean squared distance
    of draws from their mean, g2 the largest squared draw norm.

    Batches at least as large as the probe collapse to the full set, so the
    variance estimate is exactly zero there.
    """
    if n_draws < 2:
        raise ValueError("need at least two draws")
    if batch_size < 1:
        raise ValueError("batch_size must be positive")
    check_batch(spec, probe)
    rng = np.random.default_rng(seed)
    n = len(probe)
    if batch_size >= n:
        # every draw is the whole probe, so the spread is zero by definition
        full = mean_grads(spec, params, probe.features, probe.labels)
        return GradientStats(sigma2=0.0, g2=float(full @ full))
    idx = np.sort([rng.choice(n, size=batch_size, replace=False) for _ in range(n_draws)])
    # one backward pass over the (n_draws, batch_size, d) stack of batches
    stack = mean_grads(spec, params, probe.features[idx], probe.labels[idx])
    mean = stack.mean(axis=0)
    sigma2 = float(np.mean(np.sum((stack - mean) ** 2, axis=1)))
    g2 = float(np.max(np.sum(stack**2, axis=1)))
    return GradientStats(sigma2=sigma2, g2=g2)

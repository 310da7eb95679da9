"""Per-(client, category) gradient-curvature estimates and SGD noise statistics.

The curvature row for a client measures, per category, the largest ratio of
per-sample gradient change to parameter change between that client's model and
the aggregated one. ``estimate_lipschitz`` takes all clients at once, as the
(K, P) parameter stack of a round, and backpropagates the aggregate over the
probe once for all of them. Each gradient change is an outer-product sum per
layer, so its norm comes from row dot products of activations and deltas, in
difference form, without forming any per-sample gradient. The sampling-weight
solver consumes these rows; the exact noise statistics feed diagnostics only.
"""

from __future__ import annotations

import logging

import numpy as np

from .data import Dataset
from .model import (
    ModelSpec,
    per_sample_grad_change_norms,
    per_sample_pass,
    per_sample_sq_norms,
)

logger = logging.getLogger(__name__)


def lipschitz_row(
    diff_norms: np.ndarray,
    labels: np.ndarray,
    n_classes: int,
    deviation_norm: float,
) -> np.ndarray:
    """Per-category max of gradient-difference norms over the deviation norm.

    ``diff_norms[n]`` is the norm of sample n's gradient change, and
    ``deviation_norm`` the positive, finite norm of the parameter change;
    ``labels`` holds at least one sample, as a probe's labels do. One
    scatter-max from -inf takes every category's maximum; a category with no
    samples stays at -inf and is filled with the mean of the present entries.
    """
    row = np.full(n_classes, -np.inf)
    np.maximum.at(row, labels, diff_norms)
    row /= deviation_norm
    missing = row == -np.inf
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
    a pass is not finite, or when a client that moved gets an all-zero row:
    no per-sample gradient changed on the probe, as when the aggregate has
    saturated every unit the probe reaches.
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
        if not np.any(rows[k] > 0.0):
            raise ValueError(
                f"client {k}: its per-sample gradients did not change on the probe although"
                f" its parameters moved by {deviation:.3g}; the aggregate's largest |parameter|"
                f" is {np.max(np.abs(global_params)):.3g}"
            )
    return rows


def estimate_sgd_stats(
    spec: ModelSpec, params: np.ndarray, pool: Dataset, bounds, batch_size: int
) -> tuple[np.ndarray, float]:
    """Exact minibatch-gradient noise of every client at ``params``, from one
    backward pass over ``pool``, as ``(sigma2, g2)``; client k holds its rows
    bounds[k]:bounds[k+1].

    A batch of B of client k's n_k samples, drawn uniformly without
    replacement, has mean gradient g_B with E g_B = gbar_k and
    ``sigma2[k]`` = E|g_B - gbar_k|^2 = (n_k - B) / (B (n_k - 1)) *
    (mean_i |g_i|^2 - |gbar_k|^2), clamped at 0 against rounding; 0 when
    B >= n_k. ``g2`` = max_k E|g_B|^2 = max_k (|gbar_k|^2 + sigma2[k]) is the
    plug-in for the bound E|g|^2 <= G^2. Raises ValueError when the bounds do
    not split the pool into non-empty clients or a statistic is not finite.
    """
    if batch_size < 1:
        raise ValueError("batch_size must be positive")
    bounds = np.asarray(bounds)
    sizes = np.diff(bounds)
    if bounds[0] != 0 or bounds[-1] != len(pool) or np.any(sizes < 1):
        raise ValueError("client bounds must split the pool into non-empty runs of rows")
    # a non-finite entry of the pass makes its client's sigma2 non-finite
    # (0 * inf is nan), which the check at the return rejects
    acts, deltas = per_sample_pass(spec, params, pool)
    mean_sq = np.add.reduceat(per_sample_sq_norms(acts, deltas), bounds[:-1]) / sizes
    # |n_k gbar_k|^2 from each layer's weight and bias gradients summed over
    # the client's rows
    sum_sq = np.zeros(len(sizes))
    ones = np.ones(sizes.max())
    for a, d in zip(acts, deltas):
        for k, (lo, hi) in enumerate(zip(bounds[:-1], bounds[1:])):
            w_sum = a[lo:hi].T @ d[lo:hi]
            b_sum = ones[: hi - lo] @ d[lo:hi]
            sum_sq[k] += np.vdot(w_sum, w_sum) + b_sum @ b_sum
    gbar_sq = sum_sq / sizes**2
    scale = np.maximum(sizes - batch_size, 0) / (batch_size * np.maximum(sizes - 1, 1))
    sigma2 = scale * np.maximum(mean_sq - gbar_sq, 0.0)
    g2 = float(np.max(gbar_sq + sigma2))
    if not (np.all(np.isfinite(sigma2)) and np.isfinite(g2)):
        raise ValueError("estimates must be finite")
    return sigma2, g2

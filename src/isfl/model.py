"""Small differentiable classifiers with exact manual backpropagation.

Parameters live in a flat float64 vector with an explicit layer layout, so
client/server code can add, scale, and measure models without knowing the
architecture. An empty ``hidden_dims`` gives multinomial logistic regression.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import Dataset

_ACTIVATIONS = ("relu", "tanh")


@dataclass(frozen=True)
class ModelSpec:
    input_dim: int
    hidden_dims: tuple[int, ...]
    n_classes: int
    activation: str = "relu"

    def __post_init__(self):
        object.__setattr__(self, "hidden_dims", tuple(int(h) for h in self.hidden_dims))
        if self.input_dim < 1 or self.n_classes < 2:
            raise ValueError("need input_dim >= 1 and n_classes >= 2")
        if any(h < 1 for h in self.hidden_dims):
            raise ValueError("hidden dims must be positive")
        if self.activation not in _ACTIVATIONS:
            raise ValueError(f"activation must be one of {_ACTIVATIONS}")

    @property
    def layer_dims(self) -> list[int]:
        return [self.input_dim, *self.hidden_dims, self.n_classes]


def layout_of(spec: ModelSpec) -> tuple[tuple[tuple[int, ...], int], ...]:
    """Flat layout as (shape, offset) pairs: W then b for each layer."""
    dims = spec.layer_dims
    layout = []
    offset = 0
    for i in range(len(dims) - 1):
        w_shape = (dims[i], dims[i + 1])
        layout.append((w_shape, offset))
        offset += dims[i] * dims[i + 1]
        layout.append(((dims[i + 1],), offset))
        offset += dims[i + 1]
    return tuple(layout)


def _layout_size(layout) -> int:
    shape, offset = layout[-1]
    return offset + int(np.prod(shape))


@dataclass
class ParamVector:
    """Flat parameter vector plus its (shape, offset) layer layout."""

    values: np.ndarray
    layout: tuple

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)
        self.layout = tuple((tuple(s), int(o)) for s, o in self.layout)
        if self.values.ndim != 1 or self.values.size != _layout_size(self.layout):
            raise ValueError("layout size must match the value vector length")

    def _check(self, other: "ParamVector") -> None:
        if self.layout != other.layout:
            raise ValueError("parameter layouts do not match")

    def __add__(self, other: "ParamVector") -> "ParamVector":
        self._check(other)
        return ParamVector(self.values + other.values, self.layout)

    def __sub__(self, other: "ParamVector") -> "ParamVector":
        self._check(other)
        return ParamVector(self.values - other.values, self.layout)

    def __mul__(self, scalar: float) -> "ParamVector":
        return ParamVector(self.values * float(scalar), self.layout)

    __rmul__ = __mul__

    def norm(self) -> float:
        return float(np.linalg.norm(self.values))

    def copy(self) -> "ParamVector":
        return ParamVector(self.values.copy(), self.layout)

    def slices(self) -> list[np.ndarray]:
        return [
            self.values[o : o + int(np.prod(s))].reshape(s) for s, o in self.layout
        ]


def zeros_params(spec: ModelSpec) -> ParamVector:
    layout = layout_of(spec)
    return ParamVector(np.zeros(_layout_size(layout)), layout)


def init_params(spec: ModelSpec, seed: int = 0) -> ParamVector:
    """Fan-in scaled uniform weights, zero biases."""
    rng = np.random.default_rng(seed)
    params = zeros_params(spec)
    views = params.slices()
    dims = spec.layer_dims
    for i in range(len(dims) - 1):
        limit = np.sqrt(6.0 / dims[i])
        views[2 * i][:] = rng.uniform(-limit, limit, size=views[2 * i].shape)
    return params


def _check_batch(spec: ModelSpec, batch: Dataset) -> None:
    if batch.dim != spec.input_dim or batch.n_classes != spec.n_classes:
        raise ValueError(
            f"batch dims ({batch.dim}, {batch.n_classes}) do not match model "
            f"spec ({spec.input_dim}, {spec.n_classes})"
        )


def _forward(spec: ModelSpec, params: ParamVector, x: np.ndarray):
    """Returns (logits, activations, pre_activations); activations[0] is x."""
    views = params.slices()
    acts = [x]
    pre = []
    n_layers = len(spec.layer_dims) - 1
    h = x
    for i in range(n_layers):
        z = h @ views[2 * i] + views[2 * i + 1]
        if i == n_layers - 1:
            return z, acts, pre
        pre.append(z)
        h = np.maximum(z, 0.0) if spec.activation == "relu" else np.tanh(z)
        acts.append(h)
    raise AssertionError("unreachable")


def _softmax_ce(logits: np.ndarray, labels: np.ndarray):
    m = logits.max(axis=1, keepdims=True)
    ex = np.exp(logits - m)
    z = ex.sum(axis=1, keepdims=True)
    log_probs = (logits - m) - np.log(z)
    losses = -log_probs[np.arange(labels.size), labels]
    return losses, ex / z


def _act_grad(spec: ModelSpec, z: np.ndarray, a: np.ndarray) -> np.ndarray:
    if spec.activation == "relu":
        return (z > 0.0).astype(np.float64)
    return 1.0 - a * a


def _backward_deltas(spec, params, acts, pre, dlogits):
    """Per-layer deltas from the logits backwards; dlogits sets the scaling."""
    views = params.slices()
    n_layers = len(spec.layer_dims) - 1
    deltas = [None] * n_layers
    deltas[-1] = dlogits
    for i in range(n_layers - 2, -1, -1):
        upstream = deltas[i + 1] @ views[2 * (i + 1)].T
        deltas[i] = upstream * _act_grad(spec, pre[i], acts[i + 1])
    return deltas


def _backprop(spec: ModelSpec, params: ParamVector, batch: Dataset, mean: bool):
    """Shared prologue of the gradient functions: check the batch, run the
    forward pass and backpropagate the softmax cross-entropy.

    Returns (activations, deltas). The logit gradient is softmax minus one-hot
    per sample; ``mean`` divides it by N before backpropagation, which gives
    the deltas of the mean loss instead of each sample's own loss.
    """
    _check_batch(spec, batch)
    n = len(batch)
    logits, acts, pre = _forward(spec, params, batch.features)
    _, dlogits = _softmax_ce(logits, batch.labels)
    dlogits[np.arange(n), batch.labels] -= 1.0
    if mean:
        dlogits /= n
    return acts, _backward_deltas(spec, params, acts, pre, dlogits)


def forward_loss(spec: ModelSpec, params: ParamVector, batch: Dataset) -> float:
    """Mean softmax cross-entropy over the batch (log-sum-exp stabilized)."""
    _check_batch(spec, batch)
    logits, _, _ = _forward(spec, params, batch.features)
    losses, _ = _softmax_ce(logits, batch.labels)
    return float(losses.mean())


def backward_grad(spec: ModelSpec, params: ParamVector, batch: Dataset) -> ParamVector:
    """Exact gradient of the mean loss, in the same layout as ``params``."""
    acts, deltas = _backprop(spec, params, batch, mean=True)
    grad = zeros_params(spec)
    views = grad.slices()
    for i, delta in enumerate(deltas):
        views[2 * i][:] = acts[i].T @ delta
        views[2 * i + 1][:] = delta.sum(axis=0)
    return grad


def per_sample_grads(spec: ModelSpec, params: ParamVector, batch: Dataset) -> np.ndarray:
    """N x P matrix: row n is the gradient of sample n's own loss."""
    acts, deltas = _backprop(spec, params, batch, mean=False)
    n = len(batch)
    layout = layout_of(spec)
    out = np.empty((n, _layout_size(layout)))
    for i, delta in enumerate(deltas):
        w_shape, w_off = layout[2 * i]
        b_shape, b_off = layout[2 * i + 1]
        w_grads = np.einsum("ni,nj->nij", acts[i], delta)
        out[:, w_off : w_off + int(np.prod(w_shape))] = w_grads.reshape(n, -1)
        out[:, b_off : b_off + b_shape[0]] = delta
    return out


def per_sample_grad_norms(spec: ModelSpec, params: ParamVector, batch: Dataset) -> np.ndarray:
    """Euclidean norm of each sample's loss gradient, without materializing it.

    For each layer the per-sample weight gradient is the outer product of the
    incoming activation and the delta, so its squared norm factorizes into
    ``|a|^2 * |delta|^2``; the bias contributes ``|delta|^2``.
    """
    acts, deltas = _backprop(spec, params, batch, mean=False)
    sq = np.zeros(len(batch))
    for i, delta in enumerate(deltas):
        a_sq = np.einsum("ni,ni->n", acts[i], acts[i])
        d_sq = np.einsum("ni,ni->n", delta, delta)
        sq += d_sq * (a_sq + 1.0)
    return np.sqrt(sq)


def sgd_step(params: ParamVector, grad: ParamVector, eta: float) -> ParamVector:
    if eta <= 0.0:
        raise ValueError("eta must be positive")
    params._check(grad)
    return ParamVector(params.values - eta * grad.values, params.layout)


def evaluate(spec: ModelSpec, params: ParamVector, ds: Dataset) -> tuple[float, float]:
    """Mean loss and top-1 accuracy on ``ds``."""
    _check_batch(spec, ds)
    logits, _, _ = _forward(spec, params, ds.features)
    losses, _ = _softmax_ce(logits, ds.labels)
    acc = float(np.mean(logits.argmax(axis=1) == ds.labels))
    return float(losses.mean()), acc

"""Small differentiable classifiers with exact manual backpropagation.

Parameters live in a flat float64 vector with an explicit layer layout, so
client/server code can add, scale, and measure models without knowing the
architecture. An empty ``hidden_dims`` gives multinomial logistic regression.

The forward and backward passes also take a leading stack axis: K parameter
vectors as a (K, P) array, each applied to its own (N, d) batch. Every slice
of the stack goes through the same matmul, softmax and reduction kernels as a
lone vector does, so ``sgd_step_stack`` moves each row exactly as K separate
steps would, bit for bit.
"""

from __future__ import annotations

import math
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
    return offset + math.prod(shape)


def _views(layout, values: np.ndarray) -> list[np.ndarray]:
    """Per-layer views of a (P,) vector or a (K, P) stack, in layout order."""
    lead = values.shape[:-1]
    return [values[..., o : o + math.prod(s)].reshape(lead + s) for s, o in layout]


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
        return _views(self.layout, self.values)


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


def check_batch(spec: ModelSpec, batch: Dataset) -> None:
    """Raise ValueError unless the dataset's dimensions match the model's."""
    if batch.dim != spec.input_dim or batch.n_classes != spec.n_classes:
        raise ValueError(
            f"batch dims ({batch.dim}, {batch.n_classes}) do not match model "
            f"spec ({spec.input_dim}, {spec.n_classes})"
        )


def _forward(spec: ModelSpec, views: list[np.ndarray], x: np.ndarray):
    """Returns (logits, activations, pre_activations); activations[0] is x.

    ``views`` are the layer views of one vector with x of shape (N, d), or of
    a (K, P) stack with x of shape (K, N, d).
    """
    acts = [x]
    pre = []
    n_layers = len(spec.layer_dims) - 1
    h = x
    for i in range(n_layers):
        z = h @ views[2 * i] + views[2 * i + 1][..., None, :]
        if i == n_layers - 1:
            return z, acts, pre
        pre.append(z)
        h = np.maximum(z, 0.0) if spec.activation == "relu" else np.tanh(z)
        acts.append(h)
    raise AssertionError("unreachable")


def _softmax_ce(logits: np.ndarray, labels: np.ndarray):
    m = logits.max(axis=-1, keepdims=True)
    ex = np.exp(logits - m)
    z = ex.sum(axis=-1, keepdims=True)
    log_probs = (logits - m) - np.log(z)
    losses = -np.take_along_axis(log_probs, labels[..., None], axis=-1)[..., 0]
    return losses, ex / z


def _act_grad(spec: ModelSpec, z: np.ndarray, a: np.ndarray) -> np.ndarray:
    if spec.activation == "relu":
        return (z > 0.0).astype(np.float64)
    return 1.0 - a * a


def _backward_deltas(spec, views, acts, pre, dlogits):
    """Per-layer deltas from the logits backwards; dlogits sets the scaling."""
    n_layers = len(spec.layer_dims) - 1
    deltas = [None] * n_layers
    deltas[-1] = dlogits
    for i in range(n_layers - 2, -1, -1):
        upstream = deltas[i + 1] @ np.swapaxes(views[2 * (i + 1)], -1, -2)
        deltas[i] = upstream * _act_grad(spec, pre[i], acts[i + 1])
    return deltas


def _backprop(spec: ModelSpec, views, x: np.ndarray, labels: np.ndarray, mean: bool):
    """Shared prologue of the gradient functions: run the forward pass and
    backpropagate the softmax cross-entropy.

    Returns (activations, deltas). The logit gradient is softmax minus one-hot
    per sample; ``mean`` divides it by N before backpropagation, which gives
    the deltas of the mean loss instead of each sample's own loss.
    """
    logits, acts, pre = _forward(spec, views, x)
    _, dlogits = _softmax_ce(logits, labels)
    dlogits[(*np.indices(labels.shape, sparse=True), labels)] -= 1.0
    if mean:
        dlogits /= labels.shape[-1]
    return acts, _backward_deltas(spec, views, acts, pre, dlogits)


def _layer_grads(acts, deltas):
    """(weight, bias) gradient of each layer, summed over the sample axis."""
    for a, delta in zip(acts, deltas):
        yield np.swapaxes(a, -1, -2) @ delta, delta.sum(axis=-2)


def forward_loss(spec: ModelSpec, params: ParamVector, batch: Dataset) -> float:
    """Mean softmax cross-entropy over the batch (log-sum-exp stabilized)."""
    check_batch(spec, batch)
    logits, _, _ = _forward(spec, params.slices(), batch.features)
    losses, _ = _softmax_ce(logits, batch.labels)
    return float(losses.mean())


def backward_grad(spec: ModelSpec, params: ParamVector, batch: Dataset) -> ParamVector:
    """Exact gradient of the mean loss, in the same layout as ``params``."""
    check_batch(spec, batch)
    acts, deltas = _backprop(spec, params.slices(), batch.features, batch.labels, mean=True)
    grad = zeros_params(spec)
    views = grad.slices()
    for i, (w_grad, b_grad) in enumerate(_layer_grads(acts, deltas)):
        views[2 * i][:] = w_grad
        views[2 * i + 1][:] = b_grad
    return grad


def sgd_step_stack(
    spec: ModelSpec, stack: np.ndarray, x: np.ndarray, labels: np.ndarray, eta: float
) -> None:
    """One SGD step on the mean loss for every row of a (K, P) stack, in place.

    Row k steps on its own batch: features ``x[k]`` and ``labels[k]``.
    """
    views = _views(layout_of(spec), stack)
    acts, deltas = _backprop(spec, views, x, labels, mean=True)
    for i, (w_grad, b_grad) in enumerate(_layer_grads(acts, deltas)):
        views[2 * i] -= eta * w_grad
        views[2 * i + 1] -= eta * b_grad


def per_sample_grad_blocks(spec: ModelSpec, params: ParamVector, batch: Dataset, rows: int):
    """Row blocks of the N x P per-sample gradient matrix, in order.

    One backward pass over the whole batch; each yielded (m, P) block, m <=
    rows, is a view of one reused buffer and is overwritten by the next.
    Row n is the gradient of sample n's own loss.
    """
    check_batch(spec, batch)
    acts, deltas = _backprop(spec, params.slices(), batch.features, batch.labels, mean=False)
    n = len(batch)
    buffer = np.empty((min(rows, n), params.values.size))
    views = _views(params.layout, buffer)
    for start in range(0, n, rows):
        stop = min(start + rows, n)
        for i, delta in enumerate(deltas):
            np.einsum(
                "ni,nj->nij", acts[i][start:stop], delta[start:stop],
                out=views[2 * i][: stop - start],
            )
            views[2 * i + 1][: stop - start] = delta[start:stop]
        yield buffer[: stop - start]


def per_sample_grad_norms(spec: ModelSpec, params: ParamVector, batch: Dataset) -> np.ndarray:
    """Euclidean norm of each sample's loss gradient, without materializing it.

    For each layer the per-sample weight gradient is the outer product of the
    incoming activation and the delta, so its squared norm factorizes into
    ``|a|^2 * |delta|^2``; the bias contributes ``|delta|^2``.
    """
    check_batch(spec, batch)
    acts, deltas = _backprop(spec, params.slices(), batch.features, batch.labels, mean=False)
    sq = np.zeros(len(batch))
    for i, delta in enumerate(deltas):
        a_sq = np.einsum("ni,ni->n", acts[i], acts[i])
        d_sq = np.einsum("ni,ni->n", delta, delta)
        sq += d_sq * (a_sq + 1.0)
    return np.sqrt(sq)


def evaluate(spec: ModelSpec, params: ParamVector, ds: Dataset) -> tuple[float, float]:
    """Mean loss and top-1 accuracy on ``ds``."""
    check_batch(spec, ds)
    logits, _, _ = _forward(spec, params.slices(), ds.features)
    losses, _ = _softmax_ce(logits, ds.labels)
    acc = float(np.mean(logits.argmax(axis=1) == ds.labels))
    return float(losses.mean()), acc

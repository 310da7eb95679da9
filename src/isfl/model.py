"""Small differentiable classifiers with exact manual backpropagation.

Parameters are plain float64 arrays: a (P,) vector for one model, or a (K, P)
stack whose row k is client k's model. The layer layout of a vector follows
from its ModelSpec alone (``layout_of``), so every function here takes the
spec and the array. An empty ``hidden_dims`` gives multinomial logistic
regression.

The forward and backward passes also take the leading stack axis: a (K, P)
stack with each row applied to its own (N, d) batch. Every slice of the stack
goes through the same matmul, softmax and reduction kernels as a lone vector
does, so a step of ``sgd_stepper`` moves each row exactly as K separate steps
would, bit for bit.

Kernel contract: the kernels work in place wherever the overwritten array
is their own (bias adds, the ReLU, every softmax stage, the activation
derivative) and write gradients straight into the flat result. The row max
over the class axis is taken one column at a time with ``np.maximum``,
which is exact in any order. Every sum over an axis is a BLAS product with
a ones vector: the softmax denominator is ``logits @ ones(C)`` and the bias
gradient ``ones(N) @ delta``. The softmax scales its row once, by
``1 / (N * denominator)`` for the mean loss, and the one-hot then subtracts
``1 / N``. Each slice of a stack goes through the same product shapes as a
lone call, so the mean gradients of ``_grads_into``, ``evaluate`` and the
per-sample passes equal the plain kernels frozen in ``tests/oracles.py`` bit
for bit.
"""

from __future__ import annotations

import functools
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


@functools.cache
def layout_of(spec: ModelSpec) -> tuple[tuple[tuple[int, ...], int], ...]:
    """Flat layout as (shape, offset) pairs: W then b for each layer; built
    once per spec."""
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


def _views(spec: ModelSpec, values: np.ndarray) -> list[np.ndarray]:
    """Per-layer views of a (P,) vector or a (K, P) stack, in layout order."""
    lead = values.shape[:-1]
    return [values[..., o : o + math.prod(s)].reshape(lead + s) for s, o in layout_of(spec)]


def init_params(spec: ModelSpec, seed: int = 0) -> np.ndarray:
    """Fan-in scaled uniform weights, zero biases, as one (P,) vector."""
    rng = np.random.default_rng(seed)
    shape, offset = layout_of(spec)[-1]
    params = np.zeros(offset + math.prod(shape))
    views = _views(spec, params)
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
    """Returns (logits, activations); activations[0] is x.

    ``views`` are the layer views of one vector with x of shape (N, d), or of
    a (K, P) stack with x of shape (K, N, d).
    """
    acts = [x]
    h = x
    for i in range(len(spec.hidden_dims)):
        z = h @ views[2 * i]
        z += views[2 * i + 1][..., None, :]
        h = np.maximum(z, 0.0, out=z) if spec.activation == "relu" else np.tanh(z, out=z)
        acts.append(h)
    logits = h @ views[-2]
    logits += views[-1][..., None, :]
    return logits, acts


def _row_max(z: np.ndarray) -> np.ndarray:
    """``z.max(axis=-1)``, taken one column at a time.

    ``np.maximum`` is exact, so the result is the same in any order, and
    over a short class axis the column pass is several times faster than the
    reduction.
    """
    top = z[..., 0].copy()
    for j in range(1, z.shape[-1]):
        np.maximum(top, z[..., j], out=top)
    return top


def _backward_deltas(spec, views, acts, dlogits):
    """Per-layer deltas from the logits backwards; dlogits sets the scaling."""
    n_layers = len(spec.layer_dims) - 1
    deltas = [None] * n_layers
    deltas[-1] = dlogits
    for i in range(n_layers - 2, -1, -1):
        up = deltas[i + 1] @ np.swapaxes(views[2 * (i + 1)], -1, -2)
        # activation derivative from the activation itself: relu(z) > 0
        # exactly where z > 0, and tanh' = 1 - tanh^2
        a = acts[i + 1]
        up *= (a > 0.0) if spec.activation == "relu" else 1.0 - a * a
        deltas[i] = up
    return deltas


def _backprop(spec: ModelSpec, views, x: np.ndarray, labels: np.ndarray, mean: bool):
    """Shared prologue of the gradient functions: run the forward pass and
    backpropagate the softmax cross-entropy.

    Returns (activations, deltas). The logit gradient is softmax minus one-hot
    per sample; ``mean`` scales it by 1/N before backpropagation, which gives
    the deltas of the mean loss instead of each sample's own loss.
    """
    logits, acts = _forward(spec, views, x)
    # softmax in place on the logits, with the mean's 1/N folded into the
    # one scaling pass
    n = labels.shape[-1] if mean else 1
    logits -= _row_max(logits)[..., None]
    np.exp(logits, out=logits)
    denom = logits @ np.ones(logits.shape[-1])
    denom *= n
    logits *= np.divide(1.0, denom, out=denom)[..., None]
    # minus the (scaled) one-hot, through one flat index into the contiguous
    # logits; reshape(copy=False) raises rather than hand back a copy
    flat = logits.reshape(-1, copy=False)
    flat[np.arange(0, flat.size, logits.shape[-1]) + labels.reshape(-1)] -= 1.0 / n
    return acts, _backward_deltas(spec, views, acts, logits)


def _grads_into(spec: ModelSpec, views, x: np.ndarray, labels: np.ndarray, out) -> None:
    """Write the flat gradients of the mean loss over each batch's sample axis
    into ``out``, the layer views of the result (``_views``); ``views`` are
    those of the parameters."""
    acts, deltas = _backprop(spec, views, x, labels, mean=True)
    ones = np.ones(x.shape[-2])
    for i, (a, delta) in enumerate(zip(acts, deltas)):
        # weight and bias gradients, summed over the sample axis
        np.matmul(np.swapaxes(a, -1, -2), delta, out=out[2 * i])
        np.matmul(ones, delta, out=out[2 * i + 1])


def sgd_stepper(spec: ModelSpec, stack: np.ndarray):
    """``step(x, labels, eta)``: one SGD step on the mean loss for every row of
    the (K, P) ``stack``, in place, row k on features ``x[k]`` and labels
    ``labels[k]``. The stack's layer views and one gradient buffer are built
    here, once, and every step writes into them through ``_grads_into``.
    Raises ValueError on a stack that is not C-contiguous: strided row views
    round differently from lone vectors."""
    if not stack.flags.c_contiguous:
        raise ValueError("the stack must be C-contiguous to step each row as a lone vector")
    views = _views(spec, stack)
    grads = np.empty_like(stack)
    grad_views = _views(spec, grads)

    def step(x: np.ndarray, labels: np.ndarray, eta: float) -> None:
        _grads_into(spec, views, x, labels, grad_views)
        np.multiply(grads, eta, out=grads)
        np.subtract(stack, grads, out=stack)

    return step


def _row_dot(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Dot product of each row of u with the same row of v."""
    return np.einsum("ni,ni->n", u, v)


def per_sample_sq_norms(acts, deltas) -> np.ndarray:
    """Squared norm of each sample's loss gradient from the activations and
    per-sample deltas of one backward pass over a batch, without forming it.

    For each layer the per-sample weight gradient is the outer product of the
    incoming activation and the delta, so its squared norm factorizes into
    ``|a|^2 * |delta|^2``; the bias contributes ``|delta|^2``.
    """
    sq = np.zeros(len(acts[0]))
    for a, delta in zip(acts, deltas):
        sq += _row_dot(delta, delta) * (_row_dot(a, a) + 1.0)
    return sq


def per_sample_grad_norms(spec: ModelSpec, params: np.ndarray, batch: Dataset) -> np.ndarray:
    """Euclidean norm of each sample's loss gradient (``per_sample_sq_norms``)."""
    return np.sqrt(per_sample_sq_norms(*per_sample_pass(spec, params, batch)))


def per_sample_pass(spec: ModelSpec, params: np.ndarray, batch: Dataset):
    """Activations and per-sample deltas of one backward pass over ``batch``,
    the input of ``per_sample_grad_change_norms`` and ``per_sample_sq_norms``.
    They are not checked here: a non-finite entry makes what is computed
    from them non-finite, and each user checks that."""
    check_batch(spec, batch)
    return _backprop(spec, _views(spec, params), batch.features, batch.labels, mean=False)


def per_sample_grad_change_norms(own, base) -> np.ndarray:
    """Norm of each sample's loss-gradient change from the vector of the pass
    ``base`` to that of the pass ``own`` (both from ``per_sample_pass`` over one
    batch), without forming any gradient.

    Per layer, with activations a and deltas d, a sample's weight-gradient
    change is ``da (x) d + a_base (x) dd`` with ``da = a - a_base`` and
    ``dd = d - d_base``, so its squared norm is
    ``|da|^2 |d|^2 + |a_base|^2 |dd|^2 + 2 (da . a_base)(d . dd)``; the bias
    adds ``|dd|^2``. Built from the differences, the sum stays accurate for
    close vectors, where ``|g|^2 + |g_base|^2 - 2 g . g_base`` would cancel.
    It is clamped at 0 against rounding. Raises ValueError if the sum is not
    finite.
    """
    (acts, deltas), (acts_b, deltas_b) = own, base
    sq = np.zeros(len(acts[0]))
    for a, d, a_b, d_b in zip(acts, deltas, acts_b, deltas_b):
        da, dd = a - a_b, d - d_b
        dd_sq = _row_dot(dd, dd)
        sq += _row_dot(da, da) * _row_dot(d, d) + _row_dot(a_b, a_b) * dd_sq
        sq += 2.0 * _row_dot(da, a_b) * _row_dot(d, dd) + dd_sq
    if not np.all(np.isfinite(sq)):
        raise ValueError("per-sample gradients are not finite; the run diverged")
    return np.sqrt(np.maximum(sq, 0.0))


def evaluate(spec: ModelSpec, params: np.ndarray, ds: Dataset) -> tuple[float, float]:
    """Mean loss and top-1 accuracy on ``ds``."""
    check_batch(spec, ds)
    logits, _ = _forward(spec, _views(spec, params), ds.features)
    top = logits.argmax(axis=-1)
    logits -= _row_max(logits)[:, None]
    label_logit = logits[np.arange(len(ds)), ds.labels]
    np.exp(logits, out=logits)
    losses = -(label_logit - np.log(logits @ np.ones(spec.n_classes)))
    return float(losses.mean()), float(np.mean(top == ds.labels))

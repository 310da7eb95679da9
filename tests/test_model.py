import math
import os
import subprocess
import sys

import numpy as np
import pytest

from isfl.data import Dataset
from isfl.model import (
    ModelSpec,
    _backprop,
    _views,
    evaluate,
    init_params,
    layout_of,
    per_sample_grad_norms,
    sgd_stepper,
)
import oracles
from oracles import kernel_mean_grads


def zeros(spec):
    return np.zeros_like(init_params(spec))


def mean_loss(spec, params, batch):
    return evaluate(spec, params, batch)[0]


def grad(spec, params, batch):
    return kernel_mean_grads(spec, params, batch.features, batch.labels)


def random_batch(spec, n, rng):
    features = rng.standard_normal((n, spec.input_dim))
    labels = rng.integers(0, spec.n_classes, size=n)
    return Dataset(features, labels, spec.n_classes)


def scalar_loss_oracle(spec, params, batch):
    """Straight-line re-implementation with python floats only."""
    views = _views(spec, params)
    dims = spec.layer_dims
    total = 0.0
    for n in range(len(batch)):
        h = [float(v) for v in batch.features[n]]
        for layer in range(len(dims) - 1):
            w, b = views[2 * layer], views[2 * layer + 1]
            out = []
            for j in range(dims[layer + 1]):
                z = b[j]
                for i in range(dims[layer]):
                    z += h[i] * w[i, j]
                if layer < len(dims) - 2:
                    if spec.activation == "relu":
                        z = z if z > 0 else 0.0
                    else:
                        z = math.tanh(z)
                out.append(float(z))
            h = out
        m = max(h)
        lse = m + math.log(sum(math.exp(v - m) for v in h))
        total += lse - h[batch.labels[n]]
    return total / len(batch)


def central_difference(spec, params, batch, eps=1e-5):
    fd = np.zeros_like(params)
    for i in range(params.size):
        bumped = params.copy()
        bumped[i] += eps
        up = mean_loss(spec, bumped, batch)
        bumped[i] -= 2 * eps
        down = mean_loss(spec, bumped, batch)
        fd[i] = (up - down) / (2 * eps)
    return fd


SPECS = [
    ModelSpec(6, (), 3),
    ModelSpec(5, (8,), 4, activation="relu"),
    ModelSpec(5, (7,), 3, activation="tanh"),
]


class TestForwardLoss:
    def test_uniform_logits_give_log_c(self):
        spec = ModelSpec(4, (), 5)
        params = zeros(spec)
        rng = np.random.default_rng(0)
        batch = random_batch(spec, 12, rng)
        assert mean_loss(spec, params, batch) == pytest.approx(math.log(5), abs=1e-12)

    def test_confident_correct_prediction_near_zero(self):
        spec = ModelSpec(2, (), 3)
        params = zeros(spec)
        _views(spec, params)[1][0] = 25.0  # bias pushes class 0 to probability ~1
        batch = Dataset(np.zeros((1, 2)), np.array([0]), 3)
        assert mean_loss(spec, params, batch) < 1e-6

    @pytest.mark.parametrize("spec", SPECS)
    def test_matches_scalar_reimplementation(self, spec):
        rng = np.random.default_rng(42)
        params = init_params(spec, seed=1)
        batch = random_batch(spec, 9, rng)
        ours = mean_loss(spec, params, batch)
        oracle = scalar_loss_oracle(spec, params, batch)
        assert ours == pytest.approx(oracle, abs=1e-10)

    def test_dimension_mismatch(self):
        spec = ModelSpec(4, (), 3)
        batch = Dataset(np.zeros((2, 5)), np.array([0, 1]), 3)
        with pytest.raises(ValueError):
            mean_loss(spec, zeros(spec), batch)


class TestBackwardGrad:
    def test_symmetric_saddle_bias_gradients_vanish(self):
        spec = ModelSpec(3, (), 4)
        params = zeros(spec)
        rng = np.random.default_rng(1)
        features = rng.standard_normal((8, 3))
        labels = np.repeat(np.arange(4), 2)
        bias = _views(spec, grad(spec, params, Dataset(features, labels, 4)))[1]
        assert np.allclose(bias, 0.0, atol=1e-15)

    def test_finite_difference_check_20_pairs(self):
        worst = 0.0
        for trial in range(20):
            spec = SPECS[trial % len(SPECS)]
            rng = np.random.default_rng(100 + trial)
            params = init_params(spec, seed=trial)
            batch = random_batch(spec, 6, rng)
            exact = grad(spec, params, batch)
            fd = central_difference(spec, params, batch)
            rel = np.linalg.norm(exact - fd) / np.linalg.norm(fd)
            worst = max(worst, rel)
        assert worst <= 1e-4

    def test_singleton_equals_per_sample_row(self):
        spec = ModelSpec(5, (6,), 3)
        rng = np.random.default_rng(5)
        params = init_params(spec, seed=2)
        batch = random_batch(spec, 4, rng)
        rows = next(oracles.per_sample_grad_blocks(spec, params, batch, len(batch)))
        for n in range(4):
            single = grad(spec, params, batch.subset(np.array([n])))
            # BLAS picks shape-dependent kernels, so equality holds to a few ulp
            assert np.allclose(single, rows[n], rtol=0, atol=1e-12)

    def test_loss_decreases_after_one_step(self):
        for seed in range(5):
            spec = ModelSpec(6, (8,), 4)
            rng = np.random.default_rng(200 + seed)
            params = init_params(spec, seed=seed)
            batch = random_batch(spec, 32, rng)
            before = mean_loss(spec, params, batch)
            stack = params[None, :].copy()
            sgd_stepper(spec, stack)(batch.features[None], batch.labels[None], 1e-3)
            assert mean_loss(spec, stack[0], batch) < before


class TestPerSampleNorms:
    def test_duplicated_sample_identical_norms(self):
        spec = ModelSpec(4, (5,), 3)
        params = init_params(spec, seed=0)
        row = np.random.default_rng(3).standard_normal(4)
        batch = Dataset(np.vstack([row, row]), np.array([1, 1]), 3)
        norms = per_sample_grad_norms(spec, params, batch)
        assert norms[0] == norms[1]

    def test_mean_norm_dominates_norm_of_mean(self):
        spec = ModelSpec(5, (6,), 4)
        rng = np.random.default_rng(8)
        params = init_params(spec, seed=3)
        batch = random_batch(spec, 16, rng)
        norms = per_sample_grad_norms(spec, params, batch)
        mean_grad = grad(spec, params, batch)
        assert norms.mean() >= np.linalg.norm(mean_grad) - 1e-12

    def test_norms_match_singleton_backward(self):
        spec = ModelSpec(5, (6,), 3, activation="tanh")
        rng = np.random.default_rng(9)
        params = init_params(spec, seed=4)
        batch = random_batch(spec, 10, rng)
        norms = per_sample_grad_norms(spec, params, batch)
        for n in range(10):
            single = grad(spec, params, batch.subset(np.array([n])))
            assert norms[n] == pytest.approx(np.linalg.norm(single), rel=1e-12)


class TestLayout:
    def test_layout_covers_values(self):
        spec = ModelSpec(7, (4,), 3)
        params = init_params(spec, seed=0)
        shapes = [s for s, _ in layout_of(spec)]
        assert shapes == [(7, 4), (4,), (4, 3), (3,)]
        assert params.size == 7 * 4 + 4 + 4 * 3 + 3


class TestStack:
    @pytest.mark.parametrize("hidden", [(), (1,), (5, 3)])
    @pytest.mark.parametrize("activation", ["relu", "tanh"])
    @pytest.mark.parametrize("n", [1, 2, 7])
    def test_stacked_step_matches_separate_steps_bitwise(self, hidden, activation, n):
        spec = ModelSpec(4, hidden, 3, activation=activation)
        rng = np.random.default_rng(len(hidden) + n)
        rows = [init_params(spec, seed=k) for k in range(3)]
        batches = [random_batch(spec, n, rng) for _ in rows]
        stack = np.stack(rows)
        x = np.stack([b.features for b in batches])
        labels = np.stack([b.labels for b in batches])
        sgd_stepper(spec, stack)(x, labels, 0.3)
        for k, (params, batch) in enumerate(zip(rows, batches)):
            alone = params - grad(spec, params, batch) * 0.3
            assert np.array_equal(stack[k], alone)

    def test_a_stack_that_is_not_c_ordered_is_rejected(self):
        """A copy of a broadcast keeps its column-major stride order, whose
        strided rows round one ulp off a lone vector."""
        spec = ModelSpec(4, (5,), 3)
        params = init_params(spec, seed=0)
        stack = np.array(np.broadcast_to(params, (3, params.size)))
        assert stack.flags.f_contiguous and not stack.flags.c_contiguous
        with pytest.raises(ValueError, match="must be C-contiguous"):
            sgd_stepper(spec, stack)

    @pytest.mark.parametrize("rows", [1, 3, 128, 500])
    def test_blocks_equal_whole_matrix_bitwise(self, rows):
        spec = ModelSpec(5, (6,), 3, activation="tanh")
        params = init_params(spec, seed=9)
        batch = random_batch(spec, 130, np.random.default_rng(4))
        whole = next(oracles.per_sample_grad_blocks(spec, params, batch, len(batch)))
        blocks = [b.copy() for b in oracles.per_sample_grad_blocks(spec, params, batch, rows)]
        assert all(len(b) <= rows for b in blocks)
        assert np.array_equal(np.concatenate(blocks), whole)


class TestEvaluate:
    def test_chance_level_for_constant_predictor(self):
        spec = ModelSpec(4, (), 5)
        batch = random_batch(spec, 100, np.random.default_rng(0))
        # make every class equally represented
        batch = Dataset(batch.features, np.tile(np.arange(5), 20), 5)
        _, acc = evaluate(spec, zeros(spec), batch)
        assert acc == pytest.approx(1 / 5)

    def test_matches_handrolled_argmax(self):
        spec = ModelSpec(6, (5,), 4)
        rng = np.random.default_rng(12)
        params = init_params(spec, seed=6)
        ds = random_batch(spec, 100, rng)
        _, acc = evaluate(spec, params, ds)
        hits = 0
        for n in range(100):
            single = ds.subset(np.array([n]))
            losses = []
            for c in range(4):
                relabeled = Dataset(single.features, np.array([c]), 4)
                losses.append(mean_loss(spec, params, relabeled))
            hits += int(np.argmin(losses) == ds.labels[n])
        assert acc == pytest.approx(hits / 100)



def assert_kernels_match_reference(spec, stack, x, labels):
    """The in-place kernels against the plain ones of ``oracles``, bit for bit:
    mean gradients of a (K, P) stack, of its first row over the K batches as
    a (D, N, d) stack and over one batch, the per-sample backward pass of one
    batch, and the loss and accuracy on it. Each row of the stack's mean
    gradients also equals a lone call on its own batch, byte for byte: the
    BLAS sums pick their kernels by shape, and a stack row has a lone call's
    shapes."""
    vector, batch = stack[0], Dataset(x[0], labels[0], spec.n_classes)
    for values, xs, ys in ((stack, x, labels), (vector, x, labels), (vector, x[0], labels[0])):
        assert np.array_equal(
            kernel_mean_grads(spec, values, xs, ys), oracles.mean_grads(spec, values, xs, ys)
        )
    stacked = kernel_mean_grads(spec, stack, x, labels)
    for k, row in enumerate(stack):
        assert stacked[k].tobytes() == kernel_mean_grads(spec, row, x[k], labels[k]).tobytes()
    ours = _backprop(spec, _views(spec, vector), x[0], labels[0], mean=False)
    ref = oracles._backprop(spec, _views(spec, vector), x[0], labels[0], mean=False)
    for a, b in zip(ours[0] + ours[1], ref[0] + ref[1]):
        assert np.array_equal(a, b)
    assert evaluate(spec, vector, batch) == oracles.evaluate(spec, vector, batch)


class TestFrozenReference:
    @pytest.mark.parametrize("n_classes", [2, 5, 10, 12, 100])
    @pytest.mark.parametrize("hidden", [(), (16,), (16, 8)])
    @pytest.mark.parametrize("activation", ["relu", "tanh"])
    def test_kernels_equal_reference_bitwise(self, n_classes, hidden, activation):
        spec = ModelSpec(7, hidden, n_classes, activation=activation)
        rng = np.random.default_rng(n_classes * 10 + len(hidden))
        for k, n in ((1, 1), (2, 2), (3, 37), (4, 128), (2, 200), (5, 5), (10, 104), (10, 129)):
            stack = np.stack([init_params(spec, seed=int(s)) for s in rng.integers(1e6, size=k)])
            stack += 0.1 * rng.standard_normal(stack.shape)
            x = rng.standard_normal((k, n, spec.input_dim))
            labels = rng.integers(0, n_classes, size=(k, n))
            assert_kernels_match_reference(spec, stack, x, labels)

    @pytest.mark.parametrize("n_classes", [2, 10, 100])
    @pytest.mark.parametrize("hidden", [(), (16, 8)])
    def test_logits_of_1e3_where_exp_underflows(self, n_classes, hidden):
        spec = ModelSpec(7, hidden, n_classes)
        rng = np.random.default_rng(n_classes)
        stack = np.stack([init_params(spec, seed=k) for k in range(3)])
        x = rng.standard_normal((3, 50, spec.input_dim))
        labels = rng.integers(0, n_classes, size=(3, 50))
        logits, _, _ = oracles._forward(spec, _views(spec, stack), x)
        # scale the output layer so the largest logit of each row of the stack is 1e3
        w, b = _views(spec, stack)[-2:]
        scale = 1e3 / np.abs(logits).max(axis=(1, 2))
        w *= scale[:, None, None]
        b *= scale[:, None]
        logits, _, _ = oracles._forward(spec, _views(spec, stack), x)
        assert np.abs(logits).max() == pytest.approx(1e3)
        assert (oracles._softmax(logits) == 0.0).any()
        assert_kernels_match_reference(spec, stack, x, labels)

    def test_tied_logits_take_the_first_index(self):
        spec = ModelSpec(4, (), 5)
        params = init_params(spec, seed=3)
        w, b = _views(spec, params)
        w[:, 1] = w[:, 3]
        b[[1, 3]] = 50.0  # classes 1 and 3 tie for the top of every row
        x = np.random.default_rng(6).standard_normal((1, 40, 4))
        labels = np.ones((1, 40), dtype=np.intp)
        logits, _, _ = oracles._forward(spec, _views(spec, params), x[0])
        assert np.array_equal(logits[:, 1], logits[:, 3])
        assert_kernels_match_reference(spec, params[None], x, labels)
        assert evaluate(spec, params, Dataset(x[0], labels[0], 5))[1] == 1.0

    def test_nan_logits_take_argmax_first_nan(self):
        spec = ModelSpec(3, (), 4)
        params = init_params(spec, seed=1)
        _views(spec, params)[0][0, 2] = np.inf  # inf * 0 makes class 2's logit NaN
        x = np.random.default_rng(2).standard_normal((30, 3))
        x[::3, 0] = 0.0
        labels = np.full(30, 2)
        batch = Dataset(x, labels, 4)
        with np.errstate(invalid="ignore"):
            loss, acc = evaluate(spec, params, batch)
            ref_loss, ref_acc = oracles.evaluate(spec, params, batch)
        assert np.isnan(loss) and np.isnan(ref_loss)
        assert acc == ref_acc


# OpenBLAS's own thread count in a process that has loaded it, or None
# where the library cannot be found or does not report it
BLAS_THREADS = """
import ctypes

def threads():
    try:
        paths = {line.split()[-1] for line in open("/proc/self/maps") if "openblas" in line}
    except OSError:
        return None
    for path in sorted(paths):
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            getter = getattr(ctypes.CDLL(path), name, None)
            if getter is not None:
                return getter()
    return None
"""

# Hashes the bytes of the kernels' results at paper-scale and wide-probe
# sizes, and prints the BLAS thread count where the library reports it.
THREAD_PROBE = BLAS_THREADS + """
import hashlib
import numpy as np
from isfl.data import Dataset
from isfl.model import ModelSpec, evaluate, init_params, per_sample_pass
from oracles import kernel_mean_grads

rng = np.random.default_rng(0)
paper, wide = ModelSpec(32, (16,), 10), ModelSpec(64, (64,), 5)
stack = np.stack([init_params(paper, seed=k) for k in range(20)])
x, y = rng.standard_normal((20, 128, 32)), rng.integers(0, 10, size=(20, 128))
rows = Dataset(rng.standard_normal((20000, 32)), rng.integers(0, 10, size=20000), 10)
probe = Dataset(rng.standard_normal((5000, 64)), rng.integers(0, 5, size=5000), 5)
acts, deltas = per_sample_pass(wide, init_params(wide, seed=1), probe)
print(threads())
print(hashlib.sha256(kernel_mean_grads(paper, stack, x, y).tobytes()).hexdigest())
print([v.hex() for v in evaluate(paper, stack[0], rows)])
print(hashlib.sha256(b"".join(a.tobytes() for a in (*acts, *deltas))).hexdigest())
"""


def test_kernels_do_not_depend_on_the_blas_thread_count():
    """The BLAS sums of the mean gradients, ``evaluate`` and ``per_sample_pass``
    give the same bytes under one and two BLAS threads. This covers the model
    kernels only: the per-client gemm of ``lipschitz.estimate_sgd_stats`` does
    depend on the thread count (a FOUND line in CHANGES.md, ROADMAP item 2)."""
    here = os.path.dirname(__file__)
    src = os.path.join(here, os.pardir, "src")
    outputs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
                   MKL_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join(
                       filter(None, [src, here, os.environ.get("PYTHONPATH")])))
        done = subprocess.run([sys.executable, "-c", THREAD_PROBE], env=env,
                              capture_output=True, text=True, check=True)
        reported, *digests = done.stdout.splitlines()
        assert reported in ("None", threads)  # the setting took, where readable
        outputs.append(digests)
    assert outputs[0] == outputs[1]

"""Dataset containers, synthetic data generation, and label-skew partitioning.

Clients receive disjoint slices of a source dataset via a sort-and-partition
split: samples are sorted by label and cut into shards, each shard mixing a
skewed block of (mostly) one label with a small uniformly spread remainder.
The non-i.i.d. ratio ``nr`` controls how much of each shard comes from the
skewed block.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

DATASET_MAGIC = b"ISFLDS1"


class CapacityError(ValueError):
    """Raised when an operation asks for more samples than are available."""


@dataclass(frozen=True)
class CategoryDistribution:
    """Probability vector over the label categories."""

    probs: np.ndarray

    def __post_init__(self):
        probs = np.asarray(self.probs, dtype=np.float64)
        object.__setattr__(self, "probs", probs)
        if probs.ndim != 1 or probs.size == 0:
            raise ValueError("probs must be a non-empty 1-D vector")
        if not np.all(np.isfinite(probs)):
            raise ValueError("probs must be finite")
        if np.any(probs < 0.0):
            raise ValueError("probs must be non-negative")
        if abs(probs.sum() - 1.0) > 1e-9:
            raise ValueError(f"probs must sum to 1 (got {probs.sum()!r})")

    def __len__(self) -> int:
        return self.probs.size


@dataclass(frozen=True)
class Dataset:
    """Dense features plus integer labels in ``[0, n_classes)``."""

    features: np.ndarray
    labels: np.ndarray
    n_classes: int

    def __post_init__(self):
        features = np.asarray(self.features, dtype=np.float64)
        labels = np.asarray(self.labels, dtype=np.int64)
        object.__setattr__(self, "features", features)
        object.__setattr__(self, "labels", labels)
        if features.ndim != 2 or features.shape[0] == 0 or features.shape[1] == 0:
            raise ValueError("features must be a non-empty N x d matrix")
        if labels.shape != (features.shape[0],):
            raise ValueError("labels length must equal the feature row count")
        if self.n_classes < 1:
            raise ValueError("n_classes must be positive")
        if labels.size and (labels.min() < 0 or labels.max() >= self.n_classes):
            raise ValueError("labels must lie in [0, n_classes)")

    def __len__(self) -> int:
        return self.features.shape[0]

    @property
    def dim(self) -> int:
        return self.features.shape[1]

    def subset(self, indices: np.ndarray) -> "Dataset":
        idx = np.asarray(indices, dtype=np.int64)
        return Dataset(self.features[idx], self.labels[idx], self.n_classes)


@dataclass(frozen=True)
class PartitionConfig:
    """Sort-and-partition settings for a label-skewed split."""

    n_clients: int
    shard_size: int
    shards_per_client: int = 2
    nr: float = 0.95
    seed: int = 0

    def __post_init__(self):
        if self.n_clients < 1 or self.shard_size < 1 or self.shards_per_client < 1:
            raise ValueError("n_clients, shard_size, shards_per_client must be >= 1")
        if not 0.0 <= self.nr <= 1.0:
            raise ValueError("nr must lie in [0, 1]")

    @property
    def n_shards(self) -> int:
        return self.n_clients * self.shards_per_client

    def validate_for(self, ds: Dataset) -> None:
        needed = self.n_shards * self.shard_size
        if needed > len(ds):
            raise CapacityError(
                f"partition needs {needed} samples but the dataset has {len(ds)}"
            )


@dataclass(frozen=True)
class ClientShard:
    """One client's local data: indices into a parent dataset, its samples of
    each category (``category_pools``), their sizes (``counts``) and its label
    mix."""

    client_id: int
    indices: np.ndarray
    dataset: Dataset
    local_distribution: CategoryDistribution
    category_pools: tuple = field(repr=False)
    counts: np.ndarray = field(repr=False)

    @classmethod
    def build(cls, client_id: int, indices: np.ndarray, dataset: Dataset) -> "ClientShard":
        idx = np.asarray(indices, dtype=np.int64)
        labels = dataset.labels[idx]
        counts = np.bincount(labels, minlength=dataset.n_classes)
        if counts.sum() == 0:
            raise ValueError("a client shard needs at least one sample")
        dist = CategoryDistribution(counts / counts.sum())
        pools = tuple(idx[labels == c] for c in range(dataset.n_classes))
        return cls(client_id, idx, dataset, dist, pools, counts)

    def __len__(self) -> int:
        return self.indices.size

    def as_dataset(self) -> Dataset:
        return self.dataset.subset(self.indices)


def check_synthetic(n_classes: int, per_class: int, dim: int, separation: float) -> None:
    """Raise unless generate_synthetic accepts these settings."""
    if n_classes < 2 or per_class < 1 or dim < 2:
        raise ValueError("need n_classes >= 2, per_class >= 1, dim >= 2")
    if not (math.isfinite(separation) and separation > 0.0):
        raise ValueError(f"separation must be finite and positive (got {separation!r})")


def generate_synthetic(
    n_classes: int, per_class: int, dim: int, separation: float, seed: int = 0
) -> Dataset:
    """Gaussian blobs: one unit-norm anchor per class, scaled by ``separation``.

    Samples of class ``c`` are drawn from an isotropic unit Gaussian centred at
    ``separation * anchor_c``. Deterministic for a given seed.
    """
    check_synthetic(n_classes, per_class, dim, separation)
    rng = np.random.default_rng(seed)
    anchors = rng.standard_normal((n_classes, dim))
    anchors /= np.linalg.norm(anchors, axis=1, keepdims=True)
    labels = np.repeat(np.arange(n_classes), per_class)
    noise = rng.standard_normal((labels.size, dim))
    features = separation * anchors[labels] + noise
    return Dataset(features, labels, n_classes)


def _shuffled_pools(ds: Dataset, rng: np.random.Generator) -> list[np.ndarray]:
    """Each category's row indices, shuffled by ``rng`` one category after
    another."""
    pools = []
    for c in range(ds.n_classes):
        pool = np.flatnonzero(ds.labels == c)
        rng.shuffle(pool)
        pools.append(pool)
    return pools


def _even_allocation(capacity: np.ndarray, total: int) -> np.ndarray:
    """Spread ``total`` picks across categories as evenly as capacity allows."""
    counts = np.zeros(capacity.size, dtype=np.int64)
    remaining = total
    while remaining > 0:
        open_cats = np.flatnonzero(counts < capacity)
        if open_cats.size == 0:
            raise CapacityError("not enough samples to fill the request")
        take = open_cats[:remaining]
        counts[take] += 1
        remaining -= take.size
    return counts


def sort_and_partition(ds: Dataset, cfg: PartitionConfig) -> list[ClientShard]:
    """Split ``ds`` into label-skewed client shards.

    Each shard holds ``ceil(nr * shard_size)`` samples from one contiguous
    label-sorted block and the remaining ``shard_size - ceil(nr * shard_size)``
    samples spread evenly over all categories. Shards are dealt to clients at
    random without replacement, so client data is disjoint.
    """
    cfg.validate_for(ds)
    n_shards = cfg.n_shards
    skew = math.ceil(cfg.nr * cfg.shard_size)
    uni = cfg.shard_size - skew
    rng = np.random.default_rng(cfg.seed)

    pools = _shuffled_pools(ds, rng)
    cursors = [0] * ds.n_classes

    # Uniform portion: per shard, spread `uni` picks over all categories
    # (base count per class, leftover classes chosen at random).
    uniform_parts: list[list[np.ndarray]] = []
    base, extra = divmod(uni, ds.n_classes)
    for _ in range(n_shards):
        want = np.full(ds.n_classes, base, dtype=np.int64)
        if extra:
            want[rng.choice(ds.n_classes, size=extra, replace=False)] += 1
        part = []
        for c in range(ds.n_classes):
            take = int(want[c])
            if cursors[c] + take > pools[c].size:
                raise CapacityError(
                    f"category {c} exhausted while drawing uniform shard portions"
                )
            part.append(pools[c][cursors[c] : cursors[c] + take])
            cursors[c] += take
        uniform_parts.append(part)

    # Skewed portion: leftovers, grouped by label, cut into contiguous blocks.
    # Blocks start at evenly spaced offsets so a balanced source stays balanced
    # even when the partition does not consume every sample.
    remaining = np.concatenate(
        [pools[c][cursors[c] :] for c in range(ds.n_classes)]
    )
    if skew > 0:
        if remaining.size < n_shards * skew:
            raise CapacityError("not enough samples left for the skewed shard blocks")
        seg = remaining.size // n_shards
        blocks = [remaining[b * seg : b * seg + skew] for b in range(n_shards)]
    else:
        blocks = [np.empty(0, dtype=np.int64) for _ in range(n_shards)]

    shard_indices = [
        np.concatenate(uniform_parts[s] + [blocks[s]]) for s in range(n_shards)
    ]

    order = rng.permutation(n_shards)
    shards = []
    for k in range(cfg.n_clients):
        mine = order[k * cfg.shards_per_client : (k + 1) * cfg.shards_per_client]
        idx = np.concatenate([shard_indices[s] for s in mine])
        shards.append(ClientShard.build(k, idx, ds))

    pooled = sum(shard.counts for shard in shards)
    if np.any(pooled == 0):
        missing = np.flatnonzero(pooled == 0).tolist()
        raise ValueError(
            f"categories {missing} are absent from every client; the pooled "
            "distribution must be strictly positive"
        )
    return shards


def global_distribution(shards: list[ClientShard]) -> CategoryDistribution:
    """Pooled label distribution over every client's samples."""
    if not shards:
        raise ValueError("need at least one shard")
    counts = sum(shard.counts for shard in shards)
    return CategoryDistribution(counts / counts.sum())


def select_probe_set(ds: Dataset, size: int, seed: int = 0) -> Dataset:
    """Pick a label-stratified probe subset from a held-out dataset.

    The caller must pass data never assigned to any client. Per-class counts
    are as even as the holdout allows.
    """
    if size > len(ds):
        raise CapacityError(f"probe size {size} exceeds holdout size {len(ds)}")
    if size < 1:
        raise ValueError("probe size must be positive")
    rng = np.random.default_rng(seed)
    pools = _shuffled_pools(ds, rng)
    capacity = np.array([p.size for p in pools])
    counts = _even_allocation(capacity, size)
    chosen = np.concatenate([pools[c][: counts[c]] for c in range(ds.n_classes)])
    return ds.subset(chosen)


def train_holdout_test_split(
    ds: Dataset, holdout_size: int, test_size: int, seed: int = 0
) -> tuple[Dataset, Dataset, Dataset]:
    """Stratified three-way split; holdout/test sizes are exact."""
    if holdout_size + test_size >= len(ds):
        raise CapacityError("holdout + test must leave at least one training sample")
    rng = np.random.default_rng(seed)
    pools = _shuffled_pools(ds, rng)
    capacity = np.array([p.size for p in pools])
    test_counts = _even_allocation(capacity, test_size)
    hold_counts = _even_allocation(capacity - test_counts, holdout_size)
    test_idx, hold_idx, train_idx = [], [], []
    for c in range(ds.n_classes):
        t, h = int(test_counts[c]), int(hold_counts[c])
        test_idx.append(pools[c][:t])
        hold_idx.append(pools[c][t : t + h])
        train_idx.append(pools[c][t + h :])
    return (
        ds.subset(np.concatenate(train_idx)),
        ds.subset(np.concatenate(hold_idx)),
        ds.subset(np.concatenate(test_idx)),
    )


def _check_finite(features: np.ndarray, path: str | Path) -> None:
    """Reject a file whose features hold a NaN or an infinity."""
    bad = np.flatnonzero(~np.isfinite(features).all(axis=1))
    if bad.size:
        raise ValueError(f"{path}: row {bad[0]} has a non-finite feature")


def load_dataset(path: str | Path) -> Dataset:
    with open(path, "rb") as f:
        magic = f.read(len(DATASET_MAGIC))
        if magic != DATASET_MAGIC:
            raise ValueError(f"{path}: not a dataset container (bad magic {magic!r})")
        n, d, c = struct.unpack("<III", f.read(12))
        features = np.frombuffer(f.read(n * d * 4), dtype="<f4").reshape(n, d)
        labels = np.frombuffer(f.read(n * 2), dtype="<u2")
    _check_finite(features, path)
    return Dataset(features.astype(np.float64), labels.astype(np.int64), c)


def load_csv_dataset(path: str | Path, n_classes: int | None = None) -> Dataset:
    """Read ``label,f0,f1,...`` rows; infers the class count unless given."""
    raw = np.loadtxt(path, delimiter=",", ndmin=2)
    labels = raw[:, 0]
    bad = np.flatnonzero(~(np.isfinite(labels) & (labels == np.round(labels))))
    if bad.size:
        raise ValueError(f"{path}: row {bad[0]} has a non-integer label {labels[bad[0]]!r}")
    labels = labels.astype(np.int64)
    features = raw[:, 1:]
    _check_finite(features, path)
    if n_classes is None:
        n_classes = int(labels.max()) + 1
    return Dataset(features, labels, n_classes)

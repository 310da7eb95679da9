"""Dataset containers, synthetic data generation, and label-skew partitioning.

Clients receive disjoint slices of a source dataset via a sort-and-partition
split: samples are sorted by label and cut into shards, each shard mixing a
skewed block of (mostly) one label with a small uniformly spread remainder.
The non-i.i.d. ratio ``nr`` controls how much of each shard comes from the
skewed block. The remainders are the rows of one (shards, categories) count
table, cut from each category's shuffled pool by slicing, as are the probe
and the three-way split (``_cut_pools``).
"""

from __future__ import annotations

import functools
import math
import os
import struct
import warnings
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

DATASET_MAGIC = b"ISFLDS1"


class CapacityError(ValueError):
    """Raised when an operation asks for more samples than are available."""


# The number rule of every JSON reader: a bool, a string or null is no number.
def is_integer(value) -> bool:
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def is_number(value) -> bool:
    return is_integer(value) or isinstance(value, (float, np.floating))


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
            raise ValueError(f"probs must sum to 1 (got {float(probs.sum())!r})")

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

    def validate_for(self, n_samples: int) -> None:
        """Raise CapacityError unless ``n_samples`` samples fill every shard."""
        needed = self.n_shards * self.shard_size
        if needed > n_samples:
            raise CapacityError(f"partition needs {needed} samples but the dataset has {n_samples}")


@dataclass(frozen=True)
class ClientShard:
    """One client's local data: indices into a parent dataset, its sample
    count per category (``counts``) and its label mix. ``category_rows``
    (built on first use, then kept) is the indices grouped by category."""

    client_id: int
    indices: np.ndarray
    dataset: Dataset
    local_distribution: CategoryDistribution
    counts: np.ndarray = field(repr=False)

    @classmethod
    def build(cls, client_id: int, indices: np.ndarray, dataset: Dataset) -> "ClientShard":
        idx = np.asarray(indices, dtype=np.int64)
        counts = np.bincount(dataset.labels[idx], minlength=dataset.n_classes)
        if counts.sum() == 0:
            raise ValueError("a client shard needs at least one sample")
        return cls(client_id, idx, dataset, CategoryDistribution(counts / counts.sum()), counts)

    def __len__(self) -> int:
        return self.indices.size

    @functools.cached_property
    def category_rows(self) -> np.ndarray:
        """The indices sorted by label, each category's in shard order."""
        return self.indices[np.argsort(self.dataset.labels[self.indices], kind="stable")]


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
    """Spread ``total`` picks across categories as evenly as capacity allows:
    each gets min(capacity, L) at the largest level L whose sum fits, and the
    picks left over go one each, in index order, to the categories whose
    capacity exceeds L."""
    if total > capacity.sum():
        raise CapacityError("not enough samples to fill the request")
    # sum(min(capacity, L)) is the least over j of S_j + (n - j) L, S_j the sum
    # of the j smallest capacities, so L is the largest (total - S_j) // (n - j)
    sums = np.concatenate([[0], np.cumsum(np.sort(capacity))[:-1]])
    level = ((total - sums) // np.arange(capacity.size, 0, -1)).max(initial=0)
    counts = np.minimum(capacity, level).astype(np.int64)
    counts[np.flatnonzero(capacity > level)[: total - counts.sum()]] += 1
    return counts


def _cut_pools(pools: list[np.ndarray], counts: np.ndarray) -> tuple[list[np.ndarray], np.ndarray]:
    """Consecutive slices of every category's pool, one row of the (rows,
    categories) table ``counts`` after another: each row's indices in category
    order, and the indices left after the last row. Slice bounds are Python
    ints (numpy scalars slice slower)."""
    ends = np.cumsum(counts, axis=0)
    bounds = zip((ends - counts).tolist(), ends.tolist())
    rows = [np.concatenate([p[a:b] for p, a, b in zip(pools, lo, hi)]) for lo, hi in bounds]
    return rows, np.concatenate([p[end:] for p, end in zip(pools, ends[-1].tolist())])


def sort_and_partition(ds: Dataset, cfg: PartitionConfig) -> list[ClientShard]:
    """Split ``ds`` into label-skewed client shards.

    Each shard holds ``ceil(nr * shard_size)`` samples from one contiguous
    label-sorted block and the remaining ``shard_size - ceil(nr * shard_size)``
    samples spread evenly over all categories. Shards are dealt to clients at
    random without replacement, so client data is disjoint.
    """
    cfg.validate_for(len(ds))
    n_shards = cfg.n_shards
    skew = math.ceil(cfg.nr * cfg.shard_size)
    rng = np.random.default_rng(cfg.seed)
    pools = _shuffled_pools(ds, rng)

    # Uniform portion: per shard (a row of `wants`), spread the other picks
    # over all categories (base count per class, leftover classes chosen at
    # random), cut from each category's pool in shard order. A column's ends
    # only grow, so the first row-major overrun is the first cut to fail.
    base, extra = divmod(cfg.shard_size - skew, ds.n_classes)
    wants = np.full((n_shards, ds.n_classes), base, dtype=np.int64)
    if extra:
        for want in wants:
            want[rng.choice(ds.n_classes, size=extra, replace=False)] += 1
    over = wants.cumsum(axis=0) > [pool.size for pool in pools]
    if over.any():
        c = int(over.argmax()) % ds.n_classes
        raise CapacityError(f"category {c} exhausted while drawing uniform shard portions")

    # Skewed portion: leftovers, grouped by label, cut into contiguous blocks
    # at evenly spaced offsets, so a balanced source stays balanced even when
    # the partition does not use every sample; validate_for leaves at least
    # n_shards * skew of them.
    uniform, remaining = _cut_pools(pools, wants)
    seg = remaining.size // n_shards
    shard_indices = [
        np.concatenate([portion, remaining[s * seg : s * seg + skew]])
        for s, portion in enumerate(uniform)
    ]

    order = rng.permutation(n_shards).reshape(cfg.n_clients, cfg.shards_per_client)
    shards = [
        ClientShard.build(k, np.concatenate([shard_indices[s] for s in mine]), ds)
        for k, mine in enumerate(order)
    ]

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
    (chosen,), _ = _cut_pools(pools, _even_allocation(capacity, size)[None])
    return ds.subset(chosen)


def training_size(n_samples: int, holdout_size: int, test_size: int) -> int:
    """The samples a three-way split of ``n_samples`` leaves for training;
    CapacityError unless there is at least one."""
    if holdout_size + test_size >= n_samples:
        raise CapacityError("holdout + test must leave at least one training sample")
    return n_samples - holdout_size - test_size


def train_holdout_test_split(
    ds: Dataset, holdout_size: int, test_size: int, seed: int = 0
) -> tuple[Dataset, Dataset, Dataset]:
    """Stratified three-way split; holdout/test sizes are exact."""
    training_size(len(ds), holdout_size, test_size)
    rng = np.random.default_rng(seed)
    pools = _shuffled_pools(ds, rng)
    capacity = np.array([p.size for p in pools])
    test_counts = _even_allocation(capacity, test_size)
    hold_counts = _even_allocation(capacity - test_counts, holdout_size)
    (test, hold), train = _cut_pools(pools, np.stack([test_counts, hold_counts]))
    return ds.subset(train), ds.subset(hold), ds.subset(test)


def _file_dataset(path: str | Path, features, labels, n_classes: int) -> Dataset:
    """The dataset of the file ``path``; ValueError naming the file if a
    feature is a NaN or an infinity, or if ``Dataset`` rejects the file."""
    bad = np.flatnonzero(~np.isfinite(features).all(axis=1))
    if bad.size:
        raise ValueError(f"{path}: row {bad[0]} has a non-finite feature")
    try:
        return Dataset(features, labels, n_classes)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc


def _read_section(f, size: int, path: str | Path, section: str) -> bytes:
    """The next ``size`` bytes of the container ``f``; ValueError naming the
    file and the section if the file ends first. The size is checked against
    the bytes left in the file before any read, so a header that claims more
    than the file holds allocates nothing."""
    left = os.fstat(f.fileno()).st_size - f.tell()
    if size > left:
        raise ValueError(f"{path}: truncated {section} ({left} of {size} bytes)")
    return f.read(size)


def load_dataset(path: str | Path) -> Dataset:
    with open(path, "rb") as f:
        magic = f.read(len(DATASET_MAGIC))
        if magic != DATASET_MAGIC:
            raise ValueError(f"{path}: not a dataset container (bad magic {magic!r})")
        n, d, c = struct.unpack("<III", _read_section(f, 12, path, "header"))
        features = np.frombuffer(_read_section(f, n * d * 4, path, "features"), dtype="<f4")
        labels = np.frombuffer(_read_section(f, n * 2, path, "labels"), dtype="<u2")
    features = features.reshape(n, d)
    return _file_dataset(path, features.astype(np.float64), labels.astype(np.int64), c)


def load_csv_dataset(path: str | Path, n_classes: int) -> Dataset:
    """Read ``label,f0,f1,...`` rows with labels in ``[0, n_classes)``."""
    with warnings.catch_warnings():  # a file without rows fails in Dataset, naming the file
        warnings.filterwarnings("ignore", "loadtxt: input contained no data")
        try:
            raw = np.loadtxt(path, delimiter=",", ndmin=2)
        except ValueError as exc:  # a cell or a row numpy cannot parse
            raise ValueError(f"{path}: {exc}") from exc
    labels = raw[:, 0]
    bad = np.flatnonzero(~(np.isfinite(labels) & (labels == np.round(labels))))
    if bad.size:
        raise ValueError(f"{path}: row {bad[0]} has a non-integer label {float(labels[bad[0]])!r}")
    # checked as floats: a label beyond int64 would not survive the cast
    bad = np.flatnonzero((labels < 0) | (labels >= n_classes))
    if bad.size:
        raise ValueError(
            f"{path}: row {bad[0]} has a label {float(labels[bad[0]])!r} outside [0, {n_classes})"
        )
    return _file_dataset(path, raw[:, 1:], labels.astype(np.int64), n_classes)

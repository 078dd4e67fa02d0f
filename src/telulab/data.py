"""Datasets: specs, readers, loading and batching.

The one module that knows datasets.  A :class:`DatasetSpec` names one
(cifar10, cifar100 or blobs) and how to split it, and
:func:`materialize_datasets` turns it into (train, valid, test).  Below
that sit bit-exact readers and writers for the CIFAR binary formats (one
``_CifarFormat`` record each, read by :func:`load_cifar` and
:func:`write_cifar`), a deterministic train/validation split, a synthetic
Gaussian-blob generator for fast tests, and seeded batch iteration.
CIFAR pixels are kept as the uint8 bytes read from disk, and a split is
an index array into that one store, not a copy.  Float64 features exist
one batch at a time: bytes are scaled by 1/255 into [0, 1], then, when
standardizing, shifted and scaled by the train split's per-channel
statistics, the same for every split.  Those statistics are exact for
CIFAR: they come from integer counts of the stored bytes, so they do not
depend on the order of the rows.  No augmentation is applied.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Iterator, Optional, Union

import numpy as np

from .errors import ConfigError, DataError, FormatError
from .rng import TAG_BATCH, TAG_BLOBS, TAG_SPLIT, check_seed, generator

__all__ = [
    "DataMeta",
    "Dataset",
    "SplitSpec",
    "BlobsSpec",
    "DatasetSpec",
    "materialize_datasets",
    "load_cifar",
    "load_cifar10",
    "load_cifar100",
    "write_cifar",
    "write_cifar10",
    "write_cifar100",
    "split",
    "channel_statistics",
    "synthetic_blobs",
    "batch_iter",
]

# rows per chunk of the byte counts behind the CIFAR statistics
_STATS_CHUNK = 64
# rows per block of float64 pixels that write_cifar converts to bytes
_WRITE_ROWS = 1024
_CIFAR_SHAPE = (3, 32, 32)


@dataclass(frozen=True)
class DataMeta:
    name: str
    num_classes: int
    split_tag: str


@dataclass(frozen=True, init=False)
class Dataset:
    """Examples held as one stored array plus row indices; immutable.

    ``store`` (the ``images`` argument) is what was loaded: the uint8
    pixel bytes (N, 3, 32, 32) for CIFAR, float64 features (N, dim) for
    synthetic blobs.  ``rows`` picks this dataset's examples out of
    ``store``, in order (None: all rows), so splits share the store.
    ``labels`` has one entry per example of this dataset.  Features are
    built per batch by ``features``: uint8 bytes are scaled by 1/255
    (float stores pass through unscaled), then, when ``mean`` and ``std``
    are set, standardized as (x - mean) / std.
    """

    store: np.ndarray
    labels: np.ndarray
    meta: DataMeta
    rows: Optional[np.ndarray]
    mean: Optional[np.ndarray]
    std: Optional[np.ndarray]

    def __init__(self, images, labels, meta, rows=None, mean=None, std=None):
        fields = dict(store=images, labels=labels, meta=meta, rows=rows, mean=mean, std=std)
        for name, value in fields.items():
            object.__setattr__(self, name, value)
        n = len(images) if rows is None else len(rows)
        if n != len(labels):
            raise FormatError("images and labels must have equal length")
        if n == 0:
            raise FormatError("dataset must be non-empty")

    def __len__(self) -> int:
        return len(self.labels)

    @property
    def images(self) -> np.ndarray:
        """Every example as one float64 array, built like a batch."""
        return self.features(self.store_rows(np.arange(len(self))))

    def store_rows(self, positions: np.ndarray) -> np.ndarray:
        """Rows of ``store`` holding the examples at ``positions``."""
        return positions if self.rows is None else self.rows[positions]

    def features(self, store_rows: np.ndarray) -> np.ndarray:
        """Float64 features of the store rows in an index array; the
        gather copies, so the scaling below never writes to ``store``."""
        x = self.store[store_rows]
        if x.dtype == np.uint8:
            x = np.divide(x, 255.0, dtype=np.float64)
        if self.mean is not None:
            x -= self.mean
            x /= self.std
        return x

    def take(self, indices: np.ndarray, split_tag: str) -> "Dataset":
        meta, rows = replace(self.meta, split_tag=split_tag), self.store_rows(indices)
        return Dataset(self.store, self.labels[indices], meta, rows, self.mean, self.std)

    def standardized(self, mean: np.ndarray, std: np.ndarray) -> "Dataset":
        """The same examples, standardized per batch by (mean, std)."""
        return Dataset(self.store, self.labels, self.meta, self.rows, mean, std)


@dataclass(frozen=True)
class SplitSpec:
    """Deterministic train/validation carve-up of a source training set."""

    train: int
    valid: int
    seed: int
    test: int = 0

    def __post_init__(self) -> None:
        if self.train <= 0 or self.valid <= 0:
            raise ConfigError("split.train and split.valid must be positive")
        if self.test < 0:
            raise ConfigError("split.test must be non-negative")
        check_seed(self.seed)


@dataclass(frozen=True)
class _CifarFormat:
    """A CIFAR binary format.  A record is ``label_index`` + 1 label bytes,
    the last one used (CIFAR-100's first is the coarse label), then 3072
    pixel bytes: three 1024-byte channel planes (R, G, B), each row-major 32x32."""

    record_len: int
    label_index: int
    num_classes: int
    train_files: tuple[str, ...]
    test_files: tuple[str, ...]


_CIFAR_FORMATS = {
    "cifar10": _CifarFormat(
        3073, 0, 10, tuple(f"data_batch_{i}.bin" for i in range(1, 6)), ("test_batch.bin",)
    ),
    "cifar100": _CifarFormat(3074, 1, 100, ("train.bin",), ("test.bin",)),
}


@dataclass(frozen=True)
class BlobsSpec:
    n: int
    classes: int
    dim: int
    spread: float = 0.1
    seed: int = 0

    def __post_init__(self) -> None:
        if self.n < 1 or self.classes < 2 or self.dim < 1:
            raise ConfigError("blobs spec needs n >= 1, classes >= 2, dim >= 1")
        if self.spread <= 0:
            raise ConfigError("blobs spread must be positive")
        check_seed(self.seed)


@dataclass(frozen=True)
class DatasetSpec:
    """Reference to a dataset plus how to split its training portion.

    ``standardize`` (off by default, matching the protocol under study)
    re-centers every split with the train split's per-channel mean/std.
    """

    name: str
    split: SplitSpec
    path: Optional[str] = None
    blobs: Optional[BlobsSpec] = None
    standardize: bool = False

    def __post_init__(self) -> None:
        if self.name == "blobs":
            if self.blobs is None:
                raise ConfigError("dataset.blobs settings required for blobs")
            if self.split.test <= 0:
                raise ConfigError("blobs need split.test > 0 (test set is drawn fresh)")
            if self.split.train + self.split.valid != self.blobs.n:
                raise ConfigError("split.train + split.valid must equal blobs.n")
        elif self.name not in _CIFAR_FORMATS:
            names = "|".join([*_CIFAR_FORMATS, "blobs"])
            raise ConfigError(f"dataset.name must be {names}, got {self.name!r}")
        elif self.path is None:
            raise ConfigError(f"dataset.path required for {self.name}")

    @property
    def example_shape(self) -> tuple[int, ...]:
        return (self.blobs.dim,) if self.name == "blobs" else _CIFAR_SHAPE

    @property
    def num_classes(self) -> int:
        return self.blobs.classes if self.name == "blobs" else _CIFAR_FORMATS[self.name].num_classes


def _read_records(path: Path, fmt: _CifarFormat) -> tuple[np.ndarray, np.ndarray]:
    raw = np.frombuffer(path.read_bytes(), dtype=np.uint8)
    if raw.size == 0 or raw.size % fmt.record_len:
        raise FormatError(
            f"{path.name}: length {raw.size} is not a positive multiple of "
            f"{fmt.record_len}"
        )
    records = raw.reshape(-1, fmt.record_len)
    labels = records[:, fmt.label_index].astype(np.int64)
    if labels.max() >= fmt.num_classes:
        raise FormatError(
            f"{path.name}: label {labels.max()} out of range [0, {fmt.num_classes})"
        )
    pixels = records[:, fmt.label_index + 1 :].reshape(-1, *_CIFAR_SHAPE)
    return pixels, labels


def load_cifar(name: str, path: Union[str, Path], split_tag: str = "train") -> Dataset:
    """Read one split of a CIFAR archive in the format ``name`` (cifar10 or
    cifar100, fine labels); ``path`` may be the archive directory or a
    single .bin file.  Record order is preserved exactly as on disk."""
    fmt = _CIFAR_FORMATS[name]
    if split_tag not in ("train", "test"):
        raise ConfigError("split_tag must be 'train' or 'test'")
    path = Path(path)
    if path.is_file():
        files = [path]
    else:
        files = [path / f for f in (fmt.train_files if split_tag == "train" else fmt.test_files)]
        missing = [f.name for f in files if not f.is_file()]
        if missing:
            raise FormatError(f"{path}: missing {', '.join(missing)}")
    parts = [_read_records(f, fmt) for f in files]
    pixels = np.concatenate([p[0] for p in parts])
    labels = np.concatenate([p[1] for p in parts])
    return Dataset(pixels, labels, DataMeta(name, fmt.num_classes, split_tag))


def load_cifar10(path: Union[str, Path], split_tag: str = "train") -> Dataset:
    return load_cifar("cifar10", path, split_tag)


def load_cifar100(path: Union[str, Path], split_tag: str = "train") -> Dataset:
    return load_cifar("cifar100", path, split_tag)


def _pixels_to_bytes(images: np.ndarray) -> np.ndarray:
    """Pixels in [0, 1] as bytes, scaled and rounded in place in
    ``images``; anything else (a standardized split, say) would wrap
    around in the uint8 cast, so it raises instead."""
    # min and max propagate NaN, which fails both comparisons
    if not (images.min() >= 0.0 and images.max() <= 1.0):
        raise DataError("pixel values must be finite and in [0, 1] to write CIFAR bytes")
    images *= 255.0
    return np.rint(images, out=images).astype(np.uint8).reshape(len(images), 3072)


def _label_bytes(labels, stop: int, what: str) -> np.ndarray:
    """Labels in [0, ``stop``) as bytes; the uint8 cast would wrap any
    other value (300 becomes 44), so it raises instead."""
    labels = np.asarray(labels)
    if not (labels.min() >= 0 and labels.max() < stop):
        raise DataError(
            f"{what} must be in [0, {stop}) to write CIFAR bytes, got "
            f"{labels.min()}..{labels.max()}"
        )
    return labels.astype(np.uint8)


def write_cifar(name: str, ds: Dataset, path: Union[str, Path], coarse=None) -> None:
    """Write a dataset back to the binary record format ``name``; ``coarse``
    fills CIFAR-100's coarse label byte (0 when None), one label per
    record.  Labels outside [0, classes), coarse labels outside a byte or
    not one per record, and pixels outside [0, 1] raise :class:`DataError`
    before the file is opened.  Pixels are converted :data:`_WRITE_ROWS`
    rows at a time, so no float64 copy of the whole dataset is made."""
    fmt = _CIFAR_FORMATS[name]
    records = np.empty((len(ds), fmt.record_len), dtype=np.uint8)
    if fmt.label_index:
        if coarse is not None and np.shape(coarse) != (len(ds),):
            raise DataError(
                f"coarse labels: need one per record, got shape {np.shape(coarse)} "
                f"for {len(ds)} records"
            )
        records[:, 0] = 0 if coarse is None else _label_bytes(coarse, 256, "coarse labels")
    elif coarse is not None:
        raise ConfigError(f"{name} records have no coarse label byte")
    records[:, fmt.label_index] = _label_bytes(ds.labels, fmt.num_classes, "labels")
    rows = ds.store_rows(np.arange(len(ds)))
    for start in range(0, len(ds), _WRITE_ROWS):
        block = ds.features(rows[start : start + _WRITE_ROWS])
        records[start : start + len(block), fmt.label_index + 1 :] = _pixels_to_bytes(block)
    Path(path).write_bytes(records.tobytes())


def write_cifar10(ds: Dataset, path: Union[str, Path]) -> None:
    write_cifar("cifar10", ds, path)


def write_cifar100(ds: Dataset, path: Union[str, Path], coarse=None) -> None:
    write_cifar("cifar100", ds, path, coarse)


def split(ds: Dataset, spec: SplitSpec) -> tuple[Dataset, Dataset]:
    """Shuffle deterministically by ``spec.seed`` and carve (train, valid).

    The split is unstratified; the same (dataset size, seed) always yields
    the same index assignment.
    """
    if spec.train + spec.valid != len(ds):
        raise ConfigError(
            f"split sizes {spec.train}+{spec.valid} != dataset size {len(ds)}"
        )
    perm = generator(spec.seed, TAG_SPLIT).permutation(len(ds))
    train_idx = perm[: spec.train]
    valid_idx = perm[spec.train : spec.train + spec.valid]
    return ds.take(train_idx, "train"), ds.take(valid_idx, "valid")


def channel_statistics(ds: Dataset) -> tuple[np.ndarray, np.ndarray]:
    """Per-channel (per-feature for a float store) mean and std of a
    dataset's unstandardized features, shaped to broadcast over a batch.
    A std of zero reads 1.0, so a constant channel standardizes to 0.

    For uint8 bytes the statistics are exact and do not depend on the
    order of the rows.  ``np.bincount`` counts each channel's n bytes over
    chunks of the rows, which gives s1 = sum(b) and s2 = sum(b*b) as
    integers; mean = s1 / (255 n) and var = (n s2 - s1 s1) / (255 n)**2
    are then each one correctly rounded int division.  A float store
    (blobs) takes numpy's mean and std over its rows.
    """
    rows = ds.store_rows(np.arange(len(ds)))
    if ds.store.dtype == np.uint8:
        channels = ds.store.shape[1]
        counts = np.zeros((channels, 256), dtype=np.int64)
        for start in range(0, len(rows), _STATS_CHUNK):
            block = ds.store[rows[start : start + _STATS_CHUNK]]
            for c in range(channels):
                counts[c] += np.bincount(block[:, c].ravel(), minlength=256)
        n = len(rows) * math.prod(ds.store.shape[2:])
        byte = np.arange(256, dtype=np.int64)
        s1, s2 = (counts @ byte).tolist(), (counts @ (byte * byte)).tolist()
        shape = (1, channels) + (1,) * (ds.store.ndim - 2)
        mean = np.reshape([a / (255 * n) for a in s1], shape)
        var = [(n * q - a * a) / (255 * n) ** 2 for a, q in zip(s1, s2)]
        std = np.reshape([math.sqrt(v) for v in var], shape)
    else:
        x = ds.store[rows]
        mean, std = x.mean(axis=0, keepdims=True), x.std(axis=0, keepdims=True)
    return mean, np.where(std > 0.0, std, 1.0)


def _simplex_means(classes: int, dim: int) -> np.ndarray:
    # vertices of a regular simplex, embedded in the first `classes`
    # coordinates and scaled to unit radius
    if dim < classes:
        raise ConfigError(f"blobs need dim >= classes, got dim={dim} < {classes}")
    verts = np.eye(classes) - 1.0 / classes
    verts /= np.linalg.norm(verts, axis=1, keepdims=True)
    means = np.zeros((classes, dim))
    means[:, :classes] = verts
    return means


def synthetic_blobs(
    n: int, classes: int, dim: int, spread: float = 0.1, seed: int = 0, tag: str = "train"
) -> Dataset:
    """Gaussian blobs around unit-radius simplex vertices, labels balanced
    to within one sample.  Fully determined by the arguments."""
    if classes < 2:
        raise ConfigError("blobs need at least 2 classes")
    if n < classes:
        raise ConfigError("blobs need at least one sample per class")
    if spread <= 0:
        raise ConfigError("blobs spread must be positive")
    means = _simplex_means(classes, dim)
    labels = np.arange(n, dtype=np.int64) % classes
    extra = 0 if tag == "train" else 1
    noise = generator(seed, TAG_BLOBS, extra).standard_normal((n, dim))
    images = means[labels] + spread * noise
    return Dataset(images, labels, DataMeta("blobs", classes, tag))


def materialize_datasets(spec: DatasetSpec) -> tuple[Dataset, Dataset, Dataset]:
    """(train, valid, test) datasets for a spec; pure function of the spec.
    With ``spec.standardize`` every split takes the train split's
    :func:`channel_statistics`."""
    if spec.name == "blobs":
        b = spec.blobs
        full = synthetic_blobs(b.n, b.classes, b.dim, b.spread, b.seed, tag="train")
        train, valid = split(full, spec.split)
        test = synthetic_blobs(spec.split.test, b.classes, b.dim, b.spread, b.seed, tag="test")
    else:
        if Path(spec.path).is_file():
            # a single file would serve as its own test split
            raise ConfigError(
                f"dataset.path must name the {spec.name} archive directory "
                f"(train and test files), not the single file {spec.path}"
            )
        train, valid = split(load_cifar(spec.name, spec.path, "train"), spec.split)
        test = load_cifar(spec.name, spec.path, "test")
    if spec.standardize:
        mean, std = channel_statistics(train)
        train, valid, test = (ds.standardized(mean, std) for ds in (train, valid, test))
    return train, valid, test


def batch_iter(
    ds: Dataset,
    batch: int,
    shuffle: bool = False,
    seed: int = 0,
    epoch: int = 0,
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Yield (images, labels) batches; the final short batch is included.

    Each batch's float64 images are built from the store on demand, so an
    epoch never holds more than one batch of them.  With ``shuffle`` the
    order is a pure function of (seed, epoch), so an epoch's batch stream
    can be replayed exactly.
    """
    if batch < 1:
        raise ConfigError("batch size must be >= 1")
    if shuffle:
        order = generator(seed, TAG_BATCH, epoch).permutation(len(ds))
    else:
        order = np.arange(len(ds))
    rows = ds.store_rows(order)
    for start in range(0, len(ds), batch):
        stop = start + batch
        yield ds.features(rows[start:stop]), ds.labels[order[start:stop]]

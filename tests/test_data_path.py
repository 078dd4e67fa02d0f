"""Per-batch data path: features built from the stored bytes and index
splits match a frozen copy of the float64 loader bit for bit, standardized
CIFAR features use the exact per-channel statistics of the train split's
bytes whatever its row order, a CIFAR trial never holds the archive as
float64, standardizing never holds the train split as float64, a
conv net's evaluation never holds its batch as float64 nor a 512-row
batch of its dense inputs, and a CIFAR load holds its store plus one
file, not every file beside the store."""

import math
import tracemalloc

import numpy as np
import pytest

from telulab import autograd
from telulab.autograd import (
    Activation,
    Conv2d,
    Dense,
    Flatten,
    MaxPool2,
    build_model,
    set_workers,
)
from telulab.data import SplitSpec, batch_iter, channel_statistics, load_cifar, synthetic_blobs
from telulab.harness import (
    BlobsSpec,
    DatasetSpec,
    _evaluate,
    empirical_fisher_diag,
    materialize_datasets,
)
from telulab.kernels import TELU
from telulab.rng import TAG_BATCH, TAG_SPLIT, generator

_TRAIN_FILES = [f"data_batch_{i}.bin" for i in range(1, 6)]


def write_archive(path, per_file, n_test, seed=0):
    """CIFAR-10 archive directory of random records."""
    rng = np.random.default_rng(seed)
    path.mkdir()
    for name, n in [(f, per_file) for f in _TRAIN_FILES] + [("test_batch.bin", n_test)]:
        records = rng.integers(0, 256, size=(n, 3073), dtype=np.uint8)
        records[:, 0] = rng.integers(0, 10, size=n)
        (path / name).write_bytes(records.tobytes())
    return path


# --- frozen copy of the float64 loader and take() split; exact statistics ---


def _oracle_read(files):
    """Pixel bytes (N, 3, 32, 32) of CIFAR-10 files."""
    parts = [np.frombuffer(f.read_bytes(), dtype=np.uint8).reshape(-1, 3073) for f in files]
    return np.concatenate(parts)[:, 1:].reshape(-1, 3, 32, 32)


def _exact_statistics(pixels):
    """Per-channel mean and std of pixels / 255 from int64 sums of the
    bytes, each one correctly rounded int division (std: then sqrt)."""
    b = pixels.astype(np.int64)
    n = len(b) * 32 * 32
    s1 = b.sum(axis=(0, 2, 3)).tolist()
    s2 = (b * b).sum(axis=(0, 2, 3)).tolist()
    mean = [a / (255 * n) for a in s1]
    std = [math.sqrt((n * q - a * a) / (255 * n) ** 2) for a, q in zip(s1, s2)]
    std = [v if v > 0.0 else 1.0 for v in std]
    return np.array(mean).reshape(1, 3, 1, 1), np.array(std).reshape(1, 3, 1, 1)


def _oracle_splits(full, test, split, standardize):
    """(train, valid, test) features of the stored arrays: bytes are
    scaled by 1/255, a float store passes through."""
    perm = generator(split.seed, TAG_SPLIT).permutation(len(full))
    arrays = [full[perm[: split.train]], full[perm[split.train :]], test]
    if standardize and full.dtype == np.uint8:
        mean, std = _exact_statistics(arrays[0])
    elif standardize:
        mean = arrays[0].mean(axis=0, keepdims=True)
        std = arrays[0].std(axis=0, keepdims=True)
        std = np.where(std > 0.0, std, 1.0)
    if full.dtype == np.uint8:
        arrays = [a.astype(np.float64) / 255.0 for a in arrays]
    if standardize:
        arrays = [(a - mean) / std for a in arrays]
    return arrays


def _bits(a):
    return np.asarray(a, dtype=np.float64).view(np.int64)


def _cifar_case(tmp_path, standardize):
    archive = write_archive(tmp_path / "cifar", per_file=12, n_test=20)
    split = SplitSpec(train=45, valid=15, seed=3)
    spec = DatasetSpec(name="cifar10", split=split, path=str(archive), standardize=standardize)
    full = _oracle_read([archive / f for f in _TRAIN_FILES])
    test = _oracle_read([archive / "test_batch.bin"])
    return spec, _oracle_splits(full, test, split, standardize)


def _blobs_case(standardize):
    blobs = BlobsSpec(n=90, classes=3, dim=5, spread=0.4, seed=2)
    split = SplitSpec(train=70, valid=20, seed=4, test=30)
    spec = DatasetSpec(name="blobs", split=split, blobs=blobs, standardize=standardize)
    full = synthetic_blobs(90, 3, 5, 0.4, 2, tag="train").images
    test = synthetic_blobs(30, 3, 5, 0.4, 2, tag="test").images
    return spec, _oracle_splits(full, test, split, standardize)


@pytest.mark.parametrize("standardize", [False, True])
@pytest.mark.parametrize("source", ["cifar", "blobs"])
def test_batches_and_images_match_float_oracle(tmp_path, source, standardize):
    spec, expected = (
        _cifar_case(tmp_path, standardize) if source == "cifar" else _blobs_case(standardize)
    )
    for ds, oracle in zip(materialize_datasets(spec), expected):
        np.testing.assert_array_equal(_bits(ds.images), _bits(oracle))
        order = generator(5, TAG_BATCH, 1).permutation(len(ds))
        batches = list(batch_iter(ds, 8, shuffle=True, seed=5, epoch=1))
        assert sum(len(y) for _, y in batches) == len(oracle)
        for start, (xb, _) in zip(range(0, len(ds), 8), batches):
            assert xb.dtype == np.float64
            np.testing.assert_array_equal(_bits(xb), _bits(oracle[order[start : start + 8]]))
        for start, (xb, _) in zip(range(0, len(ds), 8), batch_iter(ds, 8)):
            np.testing.assert_array_equal(_bits(xb), _bits(oracle[start : start + 8]))


@pytest.mark.parametrize("standardize", [False, True])
def test_cifar_trial_peaks_below_float64_archive(tmp_path, standardize):
    per_file, n_test = 60, 100
    archive = write_archive(tmp_path / "cifar", per_file, n_test)
    spec = DatasetSpec(
        name="cifar10",
        split=SplitSpec(train=200, valid=100, seed=0),
        path=str(archive),
        standardize=standardize,
    )
    model = build_model([Flatten(), Dense(3072, 10)], seed=0)
    float64_bytes = (5 * per_file + n_test) * 3072 * 8
    tracemalloc.start()
    try:
        train, _, _ = materialize_datasets(spec)
        empirical_fisher_diag(model, train, len(train))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < float64_bytes, f"peak {peak} B >= float64 archive {float64_bytes} B"


def test_standardize_peaks_below_float64_train_split(tmp_path):
    archive = write_archive(tmp_path / "cifar", per_file=200, n_test=100)
    train = 800
    spec = DatasetSpec(
        name="cifar10",
        split=SplitSpec(train=train, valid=200, seed=0),
        path=str(archive),
        standardize=True,
    )
    float64_train = train * 3072 * 8
    tracemalloc.start()
    try:
        materialize_datasets(spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < float64_train, f"peak {peak} B >= float64 train split {float64_train} B"


@pytest.mark.parametrize("standardize", [False, True])
def test_cnn_evaluation_peaks_below_float64_batch(tmp_path, standardize):
    # one batch of 512: each chunk of the conv prefix builds its own features
    archive = write_archive(tmp_path / "cifar", per_file=103, n_test=10)
    spec = DatasetSpec(
        name="cifar10",
        split=SplitSpec(train=512, valid=3, seed=0),
        path=str(archive),
        standardize=standardize,
    )
    train, _, _ = materialize_datasets(spec)
    model = build_model(
        [Conv2d(3, 16, 3), Activation(TELU), MaxPool2(), Conv2d(16, 32, 4), Activation(TELU),
         MaxPool2(), Flatten(), Dense(1152, 64), Activation(TELU), Dense(64, 10)],
        seed=0,
    )
    float64_batch = 512 * 3072 * 8
    tracemalloc.start()
    try:
        _evaluate(model, train)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < float64_batch, f"peak {peak} B >= float64 batch {float64_batch} B"


def _reference_cnn():
    return build_model(
        [Conv2d(3, 16, 3), Activation(TELU), MaxPool2(), Conv2d(16, 32, 4), Activation(TELU),
         MaxPool2(), Flatten(), Dense(1152, 64), Activation(TELU), Dense(64, 10)],
        seed=0,
    )


@pytest.mark.parametrize("standardize", [False, True])
def test_cnn_evaluation_peaks_below_a_float64_suffix_batch(tmp_path, standardize):
    # 512 rows on one engine thread: below one float64 batch of 512 rows of
    # the 1152 dense inputs, so the rows are forwarded in smaller batches
    archive = write_archive(tmp_path / "cifar", per_file=103, n_test=10)
    spec = DatasetSpec(
        name="cifar10",
        split=SplitSpec(train=512, valid=3, seed=0),
        path=str(archive),
        standardize=standardize,
    )
    train, _, _ = materialize_datasets(spec)
    model = _reference_cnn()
    suffix_batch = 512 * 1152 * 8
    workers = autograd.WORKERS
    set_workers(1)
    tracemalloc.start()
    try:
        _evaluate(model, train)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
        set_workers(workers)
    assert peak < suffix_batch, f"peak {peak} B >= float64 suffix batch {suffix_batch} B"


def test_cifar_load_peaks_below_its_store_plus_two_files(tmp_path):
    # the files' bytes are copied into one store as each is read
    per_file = 200
    archive = write_archive(tmp_path / "cifar", per_file, n_test=10)
    store, one_file = 5 * per_file * 3072, per_file * 3073
    tracemalloc.start()
    try:
        ds = load_cifar("cifar10", archive, "train")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert ds.store.nbytes == store
    assert peak < store + 2 * one_file, f"peak {peak} B, store {store} B, file {one_file} B"


def _cifar_spec(tmp_path, red=None):
    """Standardized spec over a random archive; ``red`` sets the red plane
    of every train-file record to that one byte value."""
    archive = write_archive(tmp_path / "cifar", per_file=40, n_test=30)
    if red is not None:
        for name in _TRAIN_FILES:
            records = np.frombuffer((archive / name).read_bytes(), dtype=np.uint8)
            records = records.reshape(-1, 3073).copy()
            records[:, 1:1025] = red
            (archive / name).write_bytes(records.tobytes())
    return DatasetSpec(
        name="cifar10",
        split=SplitSpec(train=150, valid=50, seed=2),
        path=str(archive),
        standardize=True,
    )


def test_statistics_do_not_depend_on_row_order(tmp_path):
    train = materialize_datasets(_cifar_spec(tmp_path))[0]
    mean, std = channel_statistics(train)
    np.testing.assert_array_equal(_bits(mean), _bits(train.mean))
    for seed in range(3):
        perm = np.random.default_rng(seed).permutation(len(train))
        got_mean, got_std = channel_statistics(train.take(perm, "train"))
        np.testing.assert_array_equal(_bits(got_mean), _bits(mean))
        np.testing.assert_array_equal(_bits(got_std), _bits(std))


def test_constant_channel_standardizes_to_zero(tmp_path):
    # a float sum can leave a std of about 1e-15 here: the zero-std guard
    # would miss it and test features would reach about 1e14
    train, _, test = materialize_datasets(_cifar_spec(tmp_path, red=173))
    assert train.mean[0, 0, 0, 0] == 173 / 255
    assert train.std[0, 0, 0, 0] == 1.0
    assert np.all(train.images[:, 0] == 0.0)
    assert np.all(np.abs(test.images[:, 0]) <= 1.0)

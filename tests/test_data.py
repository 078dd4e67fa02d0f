"""Data pipeline checks: binary round-trips, malformed rejection,
deterministic splits and batching, blob separability."""

import numpy as np
import pytest

from telulab import data as data_mod
from telulab.data import (
    Dataset,
    DataMeta,
    DatasetSpec,
    SplitSpec,
    batch_iter,
    load_cifar,
    load_cifar10,
    split,
    synthetic_blobs,
    write_cifar,
    write_cifar10,
)
from telulab.errors import ConfigError, DataError, FormatError


def make_cifar10_fixture(tmp_path, labels, fill):
    """Build a small CIFAR-10 binary file with constant-filled images."""
    n = len(labels)
    records = np.empty((n, 3073), dtype=np.uint8)
    records[:, 0] = labels
    for i, value in enumerate(fill):
        records[i, 1:] = value
    path = tmp_path / "fixture.bin"
    path.write_bytes(records.tobytes())
    return path


class TestCifar10:
    def test_two_record_fixture(self, tmp_path):
        path = make_cifar10_fixture(tmp_path, labels=[3, 7], fill=[255, 0])
        ds = load_cifar10(path)
        assert len(ds) == 2
        assert ds.images.shape == (2, 3, 32, 32)
        np.testing.assert_array_equal(ds.labels, [3, 7])
        assert np.all(ds.images[0] == 1.0)
        assert np.all(ds.images[1] == 0.0)

    def test_round_trip_bitwise(self, tmp_path):
        rng = np.random.default_rng(0)
        records = np.empty((5, 3073), dtype=np.uint8)
        records[:, 0] = rng.integers(0, 10, size=5)
        records[:, 1:] = rng.integers(0, 256, size=(5, 3072))
        src = tmp_path / "src.bin"
        src.write_bytes(records.tobytes())

        ds = load_cifar10(src)
        dst = tmp_path / "dst.bin"
        write_cifar10(ds, dst)
        assert src.read_bytes() == dst.read_bytes()

    def test_truncated_file_rejected(self, tmp_path):
        path = tmp_path / "bad.bin"
        path.write_bytes(bytes(3072))
        with pytest.raises(FormatError, match="bad.bin: length 3072 is not a positive multiple of 3073"):
            load_cifar10(path)

    def test_label_out_of_range_rejected(self, tmp_path):
        path = make_cifar10_fixture(tmp_path, labels=[10], fill=[0])
        with pytest.raises(FormatError, match=r"fixture.bin: label 10 out of range \[0, 10\)"):
            load_cifar10(path)

    @pytest.mark.parametrize("records", [1, 3])
    def test_file_resized_while_loading_rejected(self, tmp_path, monkeypatch, records):
        # the store is sized by the two-record file's length before it is read
        path = make_cifar10_fixture(tmp_path, labels=[1, 2], fill=[0, 255])
        read = type(path).read_bytes
        monkeypatch.setattr(type(path), "read_bytes", lambda p: (read(p) * 2)[: 3073 * records])
        match = f"fixture.bin: length changed from 6146 to {3073 * records} while loading"
        with pytest.raises(FormatError, match=match):
            load_cifar10(path)

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.bin"
        path.write_bytes(b"")
        with pytest.raises(FormatError):
            load_cifar10(path)

    def test_directory_layout(self, tmp_path):
        for name in [f"data_batch_{i}.bin" for i in range(1, 6)]:
            records = np.zeros((2, 3073), dtype=np.uint8)
            records[:, 0] = [1, 2]
            (tmp_path / name).write_bytes(records.tobytes())
        ds = load_cifar10(tmp_path)
        assert len(ds) == 10

    def test_missing_batch_file_reported(self, tmp_path):
        with pytest.raises(FormatError, match="data_batch_1.bin"):
            load_cifar10(tmp_path)

    def test_pixel_range(self, tmp_path):
        path = make_cifar10_fixture(tmp_path, labels=[0, 1, 2], fill=[0, 128, 255])
        ds = load_cifar10(path)
        assert ds.images.min() >= 0.0
        assert ds.images.max() <= 1.0


class TestCifarWriters:
    def test_standardized_split_rejected_without_a_file(self, tmp_path):
        path = make_cifar10_fixture(tmp_path, labels=[0, 1, 2], fill=[0, 128, 255])
        ds = load_cifar10(path)
        mean = np.full((1, 3, 1, 1), 0.5)
        std = np.full((1, 3, 1, 1), 0.25)
        for name in ("cifar10", "cifar100"):
            dst = tmp_path / f"write_{name}.bin"
            with pytest.raises(DataError):
                write_cifar(name, ds.standardized(mean, std), dst)
            assert not dst.exists()

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, -1e-12, 1.0 + 1e-12])
    def test_nonfinite_or_out_of_range_pixel_rejected(self, tmp_path, bad):
        images = np.full((2, 3, 32, 32), 0.5)
        images[1, 2, 31, 31] = bad
        ds = Dataset(images, np.array([0, 1]), DataMeta("cifar10", 10, "train"))
        dst = tmp_path / "out.bin"
        with pytest.raises(DataError):
            write_cifar10(ds, dst)
        assert not dst.exists()

    @pytest.mark.parametrize("bad", [300, 10, -1])
    def test_out_of_range_label_rejected(self, tmp_path, bad):
        # 300 would wrap to 44 and 10 is no CIFAR-10 class
        ds = Dataset(np.full((2, 3, 32, 32), 0.5), np.array([3, bad]), DataMeta("cifar10", 10, "train"))
        dst = tmp_path / "out.bin"
        with pytest.raises(DataError, match=r"labels must be in \[0, 10\)"):
            write_cifar10(ds, dst)
        assert not dst.exists()

    def test_coarse_label_beyond_a_byte_rejected(self, tmp_path):
        ds = Dataset(np.full((2, 3, 32, 32), 0.5), np.array([3, 99]), DataMeta("cifar100", 100, "train"))
        dst = tmp_path / "out.bin"
        with pytest.raises(DataError, match=r"coarse labels must be in \[0, 256\)"):
            write_cifar("cifar100", ds, dst, coarse=[1, 256])
        assert not dst.exists()

    @pytest.mark.parametrize("coarse", [[7], [1, 2, 3]])
    def test_coarse_labels_one_per_record(self, tmp_path, coarse):
        # a single coarse label would broadcast into every record
        ds = Dataset(np.full((2, 3, 32, 32), 0.5), np.array([3, 99]), DataMeta("cifar100", 100, "train"))
        dst = tmp_path / "out.bin"
        shape = rf"\({len(coarse)},\)"
        with pytest.raises(DataError, match=rf"one per record, got shape {shape} for 2 records"):
            write_cifar("cifar100", ds, dst, coarse=coarse)
        assert not dst.exists()

    def test_blocks_of_rows_write_the_bytes_of_one_block(self, tmp_path, monkeypatch):
        # 7 random records through blocks of 3 rows, then a bad pixel in
        # the last block, which must fail before the file is opened
        rng = np.random.default_rng(3)
        records = rng.integers(0, 256, size=(7, 3073), dtype=np.uint8)
        records[:, 0] %= 10
        src = tmp_path / "src.bin"
        src.write_bytes(records.tobytes())
        ds = load_cifar10(src)
        monkeypatch.setattr(data_mod, "_WRITE_ROWS", 3)
        dst = tmp_path / "dst.bin"
        write_cifar10(ds.take(np.arange(1, 7), "train"), dst)
        assert dst.read_bytes() == records[1:].tobytes()
        images = ds.images
        images[6, 0, 0, 0] = 2.0
        bad = tmp_path / "bad.bin"
        with pytest.raises(DataError):
            write_cifar10(Dataset(images, ds.labels, ds.meta), bad)
        assert not bad.exists()

    def test_range_ends_round_trip_bytewise(self, tmp_path):
        path = make_cifar10_fixture(tmp_path, labels=[4, 9], fill=[0, 255])
        ds = load_cifar10(path)
        assert ds.images.min() == 0.0 and ds.images.max() == 1.0
        dst = tmp_path / "dst.bin"
        write_cifar10(ds, dst)
        assert dst.read_bytes() == path.read_bytes()


class TestCifar100:
    def make_fixture(self, tmp_path, fine_labels):
        n = len(fine_labels)
        records = np.zeros((n, 3074), dtype=np.uint8)
        records[:, 0] = 0  # coarse label, unused
        records[:, 1] = fine_labels
        path = tmp_path / "train.bin"
        path.write_bytes(records.tobytes())
        return path

    def test_fine_label_boundary(self, tmp_path):
        ds = load_cifar("cifar100", self.make_fixture(tmp_path, [99, 0]))
        np.testing.assert_array_equal(ds.labels, [99, 0])
        assert ds.meta.num_classes == 100

    def test_fine_label_overflow_rejected(self, tmp_path):
        with pytest.raises(FormatError):
            load_cifar("cifar100", self.make_fixture(tmp_path, [100]))

    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(1)
        records = np.empty((4, 3074), dtype=np.uint8)
        records[:, 0] = 0
        records[:, 1] = rng.integers(0, 100, size=4)
        records[:, 2:] = rng.integers(0, 256, size=(4, 3072))
        src = tmp_path / "src.bin"
        src.write_bytes(records.tobytes())
        ds = load_cifar("cifar100", src)
        dst = tmp_path / "dst.bin"
        write_cifar("cifar100", ds, dst)
        assert src.read_bytes() == dst.read_bytes()


class TestCifarFormats:
    # (format, train files, test file, record length, label byte, classes)
    FORMATS = [
        ("cifar10", [f"data_batch_{i}.bin" for i in range(1, 6)], "test_batch.bin", 3073, 0, 10),
        ("cifar100", ["train.bin"], "test.bin", 3074, 1, 100),
    ]

    @pytest.mark.parametrize("name, train, test, length, label, classes", FORMATS)
    def test_archive_round_trip_per_split(self, tmp_path, name, train, test, length, label, classes):
        rng = np.random.default_rng(3)
        records = rng.integers(0, 256, size=(2 * len(train) + 3, length), dtype=np.uint8)
        records[:, label] = rng.integers(0, classes, size=len(records))
        archive = tmp_path / "archive"
        archive.mkdir()
        for i, f in enumerate(train):
            (archive / f).write_bytes(records[2 * i : 2 * i + 2].tobytes())
        (archive / test).write_bytes(records[-3:].tobytes())
        for tag, rows in (("train", records[:-3]), ("test", records[-3:])):
            ds = load_cifar(name, archive, tag)
            assert ds.meta == DataMeta(name, classes, tag)
            np.testing.assert_array_equal(ds.labels, rows[:, label])
            dst = tmp_path / f"{tag}.bin"
            write_cifar(name, ds, dst, coarse=rows[:, 0] if label else None)
            assert dst.read_bytes() == rows.tobytes()

    @pytest.mark.parametrize("name, train, test, length, label, classes", FORMATS)
    def test_missing_test_file_reported(self, tmp_path, name, train, test, length, label, classes):
        with pytest.raises(FormatError, match=test):
            load_cifar(name, tmp_path, "test")

    def test_coarse_labels_only_in_cifar100(self, tmp_path):
        path = make_cifar10_fixture(tmp_path, labels=[1, 2], fill=[0, 255])
        dst = tmp_path / "dst.bin"
        with pytest.raises(ConfigError, match="no coarse label"):
            write_cifar("cifar10", load_cifar10(path), dst, coarse=[3, 4])
        assert not dst.exists()

    def test_dataset_spec_names_the_known_datasets(self):
        with pytest.raises(ConfigError) as err:
            DatasetSpec(name="svhn", split=SplitSpec(train=8, valid=2, seed=0), path="x")
        assert str(err.value) == "dataset.name must be cifar10|cifar100|blobs, got 'svhn'"


def blob_ds(n=100, classes=4, dim=8, spread=0.05, seed=7):
    return synthetic_blobs(n, classes, dim, spread, seed)


class TestSplit:
    def test_sizes_disjoint_exhaustive(self):
        ds = blob_ds(n=50)
        train, valid = split(ds, SplitSpec(train=40, valid=10, seed=0))
        assert len(train) == 40 and len(valid) == 10
        key = lambda d: {tuple(np.round(row, 9)) for row in d.images}
        assert key(train) | key(valid) == key(ds)
        assert not (key(train) & key(valid))

    def test_deterministic(self):
        ds = blob_ds(n=50)
        a = split(ds, SplitSpec(train=40, valid=10, seed=0))
        b = split(ds, SplitSpec(train=40, valid=10, seed=0))
        np.testing.assert_array_equal(a[0].images, b[0].images)
        np.testing.assert_array_equal(a[1].labels, b[1].labels)

    def test_seed_changes_assignment(self):
        ds = blob_ds(n=50)
        a, _ = split(ds, SplitSpec(train=40, valid=10, seed=0))
        b, _ = split(ds, SplitSpec(train=40, valid=10, seed=1))
        assert not np.array_equal(a.images, b.images)

    def test_inconsistent_counts_rejected(self):
        ds = blob_ds(n=50)
        with pytest.raises(ConfigError):
            split(ds, SplitSpec(train=30, valid=10, seed=0))

    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_seed_outside_the_key_width_rejected(self, seed):
        # masked to 64 bits, both would alias a seed in range
        with pytest.raises(ConfigError, match="seed"):
            split(blob_ds(n=50), SplitSpec(train=40, valid=10, seed=seed))
        with pytest.raises(ConfigError, match="seed"):
            synthetic_blobs(10, 2, 2, seed=seed)

    def test_largest_seed_accepted(self):
        a, _ = split(blob_ds(n=50), SplitSpec(train=40, valid=10, seed=2**64 - 1))
        b, _ = split(blob_ds(n=50), SplitSpec(train=40, valid=10, seed=0))
        assert not np.array_equal(a.images, b.images)


class TestBlobs:
    def test_balanced_labels(self):
        ds = synthetic_blobs(10, classes=10, dim=10, spread=0.1, seed=0)
        assert sorted(ds.labels.tolist()) == list(range(10))

    def test_deterministic_bitwise(self):
        a = blob_ds()
        b = blob_ds()
        np.testing.assert_array_equal(a.images, b.images)

    def test_separability_margin(self):
        # inter-mean distance over spread must be large enough to learn
        ds = synthetic_blobs(100, classes=2, dim=2, spread=0.05, seed=7)
        mu0 = ds.images[ds.labels == 0].mean(axis=0)
        mu1 = ds.images[ds.labels == 1].mean(axis=0)
        assert np.linalg.norm(mu0 - mu1) / 0.05 > 6.0

    def test_unit_radius_means(self):
        ds = synthetic_blobs(4000, classes=5, dim=8, spread=0.01, seed=3)
        for c in range(5):
            mu = ds.images[ds.labels == c].mean(axis=0)
            assert np.linalg.norm(mu) == pytest.approx(1.0, abs=0.01)

    def test_dim_too_small_rejected(self):
        with pytest.raises(ConfigError):
            synthetic_blobs(10, classes=4, dim=3)

    def test_train_and_test_streams_differ(self):
        a = synthetic_blobs(20, 2, 4, 0.1, seed=0, tag="train")
        b = synthetic_blobs(20, 2, 4, 0.1, seed=0, tag="test")
        assert not np.array_equal(a.images, b.images)


class TestBatchIter:
    def test_short_final_batch(self):
        ds = blob_ds(n=300, classes=4)
        sizes = [len(lbl) for _, lbl in batch_iter(ds, 128)]
        assert sizes == [128, 128, 44]

    def test_unshuffled_order(self):
        ds = blob_ds(n=20)
        images, labels = next(batch_iter(ds, 8))
        np.testing.assert_array_equal(images, ds.images[:8])
        np.testing.assert_array_equal(labels, ds.labels[:8])

    def test_shuffled_stream_reproducible(self):
        ds = blob_ds(n=64)
        a = list(batch_iter(ds, 16, shuffle=True, seed=3, epoch=5))
        b = list(batch_iter(ds, 16, shuffle=True, seed=3, epoch=5))
        for (xa, ya), (xb, yb) in zip(a, b):
            np.testing.assert_array_equal(xa, xb)
            np.testing.assert_array_equal(ya, yb)

    def test_epoch_changes_order(self):
        ds = blob_ds(n=64)
        a = np.concatenate([y for _, y in batch_iter(ds, 16, True, seed=3, epoch=0)])
        b = np.concatenate([y for _, y in batch_iter(ds, 16, True, seed=3, epoch=1)])
        assert not np.array_equal(a, b)

    def test_concatenation_is_permutation(self):
        ds = blob_ds(n=50, classes=5)
        ys = np.concatenate([y for _, y in batch_iter(ds, 7, True, seed=1, epoch=2)])
        assert sorted(ys.tolist()) == sorted(ds.labels.tolist())

    def test_bad_batch_size(self):
        with pytest.raises(ConfigError):
            next(batch_iter(blob_ds(), 0))


class TestDatasetInvariants:
    def test_length_mismatch_rejected(self):
        with pytest.raises(FormatError):
            Dataset(np.zeros((3, 2)), np.zeros(2, dtype=int), DataMeta("x", 2, "t"))

    def test_empty_rejected(self):
        with pytest.raises(FormatError):
            Dataset(np.zeros((0, 2)), np.zeros(0, dtype=int), DataMeta("x", 2, "t"))

"""Atomic artifact writes: temp files are per process and never left behind;
the direct Fisher writer matches the generic CSV writer byte for byte;
metadata.json records the environment even where numpy cannot name its BLAS."""

import json
import multiprocessing
import os

import numpy as np
import pytest

from telulab import reporting


def _write_many(path, tag, count):
    for i in range(count):
        reporting.atomic_write_text(path, f"{tag}:{i}\n" * 1000)


class TestAtomicWrite:
    def test_temp_file_is_per_process_and_beside_target(self, tmp_path, monkeypatch):
        seen = []
        real_replace = os.replace

        def spy(src, dst):
            seen.append(src)
            real_replace(src, dst)

        monkeypatch.setattr(reporting.os, "replace", spy)
        target = tmp_path / "out.csv"
        pid = os.getpid()
        reporting.atomic_write_text(target, "a\n")
        monkeypatch.setattr(reporting.os, "getpid", lambda: 424242)
        reporting.atomic_write_text(target, "b\n")
        assert [p.parent for p in seen] == [tmp_path, tmp_path]
        assert seen[0].name == f"out.csv.{pid}.tmp"
        assert seen[1].name == "out.csv.424242.tmp"
        assert target.read_text() == "b\n"
        assert [p.name for p in tmp_path.iterdir()] == ["out.csv"]

    def test_another_writers_temp_file_is_left_alone(self, tmp_path):
        target = tmp_path / "out.json"
        other = tmp_path / "out.json.tmp"
        other.mkdir()  # a fixed "<file>.tmp" name would fail on this
        reporting.atomic_write_text(target, "{}\n")
        assert target.read_text() == "{}\n" and other.is_dir()

    def test_concurrent_writers_never_collide(self, tmp_path):
        # more writers than cores, all renaming onto one target
        target = tmp_path / "shared.txt"
        ctx = multiprocessing.get_context("spawn")
        tags = "abc"
        procs = [ctx.Process(target=_write_many, args=(target, t, 200)) for t in tags]
        for p in procs:
            p.start()
        for p in procs:
            p.join(timeout=60)
        assert not any(p.is_alive() for p in procs)
        assert [p.exitcode for p in procs] == [0] * len(tags)
        lines = set(target.read_text().splitlines())
        assert len(lines) == 1 and lines.pop() in {f"{t}:199" for t in tags}
        assert [p.name for p in tmp_path.iterdir()] == ["shared.txt"]

    def test_bytes_round_trip_and_failed_write_keeps_target(self, tmp_path, monkeypatch):
        target = tmp_path / "blob.bin"
        reporting.atomic_write_bytes(target, b"\x00\x01")

        def fail(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr(reporting.os, "replace", fail)
        with pytest.raises(OSError):
            reporting.atomic_write_bytes(target, b"\x02")
        assert target.read_bytes() == b"\x00\x01"
        assert [p.name for p in tmp_path.iterdir()] == ["blob.bin"]


def _fisher_bytes(tmp_path, values):
    """write_fisher_csv's bytes, after checking them against _write_csv's."""
    reporting.write_fisher_csv(values, tmp_path / "fast.csv")
    reporting._write_csv(
        tmp_path / "generic.csv",
        ("param_index", "fisher_diag"),
        ((i, float(v)) for i, v in enumerate(values)),
    )
    fast = (tmp_path / "fast.csv").read_bytes()
    assert fast == (tmp_path / "generic.csv").read_bytes()
    return fast


class TestFisherCsv:
    def test_bytes_match_the_generic_csv_writer(self, tmp_path):
        # zero, the smallest subnormal, and values whose repr switches to
        # or stays in exponent form, up to near the float maximum
        values = np.array([0.0, 5e-324, 1e-5, 1e16, 1.5e308, 0.1, 123.456, 1e-300])
        assert _fisher_bytes(tmp_path, values).splitlines()[1:6] == [
            b"0,0.0", b"1,5e-324", b"2,1e-05", b"3,1e+16", b"4,1.5e+308"
        ]

    def test_signed_zero_and_shortest_reprs(self, tmp_path):
        values = np.array([-0.0, 5e-324, 0.1, 1 / 3, 1e16, 0.0])
        assert _fisher_bytes(tmp_path, values) == (
            b"param_index,fisher_diag\n0,-0.0\n1,5e-324\n2,0.1\n"
            b"3,0.3333333333333333\n4,1e+16\n5,0.0\n"
        )

    def test_empty_vector_writes_the_header(self, tmp_path):
        reporting.write_fisher_csv(np.empty(0), tmp_path / "f.csv")
        assert (tmp_path / "f.csv").read_bytes() == b"param_index,fisher_diag\n"


class TestEnvironment:
    @pytest.mark.parametrize("error", [TypeError, KeyError])
    def test_blas_unknown_without_dict_mode(self, tmp_path, monkeypatch, error):
        # numpy < 1.26 rejects mode="dicts" with a TypeError
        def show_config(mode):
            raise error(mode)

        monkeypatch.setattr(reporting.np, "show_config", show_config)
        reporting.write_metadata(tmp_path / "metadata.json", "verify", config={})
        env = json.loads((tmp_path / "metadata.json").read_text())["environment"]
        assert env["blas"] == "unknown" and env["numpy"] == np.__version__

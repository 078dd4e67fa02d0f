"""Atomic artifact writes: temp files are per process and never left behind."""

import multiprocessing
import os

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

"""Self-tests of the benchmark: run with ``python3 -m pytest perfbench``."""

from __future__ import annotations

import json
import shutil

import pytest

import run
import tracing
import workloads


@pytest.fixture(scope="module")
def verify_run(tmp_path_factory):
    """One real verify invocation plus its recorded reference."""
    work = tmp_path_factory.mktemp("verify")
    argv = workloads.prepare_verify(work, 0)
    inv = run.invoke(run.telulab_cmd(argv), work / "out")
    reference = json.loads(run.REFERENCE.read_text())["verify"]["0"]
    return work, inv, reference


def _copy(inv: run.Invocation, dest) -> run.Invocation:
    shutil.copytree(inv.out, dest)
    return run.Invocation(inv.returncode, inv.wall_s, inv.cpu_s, inv.peak_rss_mb, dest)


def test_clean_invocations_pass(verify_run):
    work, inv, reference = verify_run
    checker = run.Checker(workloads.WORKLOADS["verify"], reference)
    assert checker.check(inv, work), checker.problems
    assert checker.check(_copy(inv, work / "again"), work), checker.problems
    assert (checker.attempted, checker.failed) == (2, 0)


def test_corrupted_artifact_counts_as_failed(verify_run, tmp_path):
    work, inv, reference = verify_run
    checker = run.Checker(workloads.WORKLOADS["verify"], reference)
    checker.check(inv, work)
    bad = _copy(inv, tmp_path / "bad")
    report = bad.out / "property_report.json"
    report.write_text(report.read_text().replace('"holds"', '"fails"', 1))
    assert not checker.check(bad, work)
    assert (checker.attempted, checker.failed) == (2, 1)


def test_corrupted_first_invocation_fails_the_reference(verify_run, tmp_path):
    work, inv, reference = verify_run
    bad = _copy(inv, tmp_path / "bad")
    report = bad.out / "property_report.json"
    claims = json.loads(report.read_text())
    claims[0]["measured"] *= 1.0 + 1e-6
    report.write_text(json.dumps(claims))
    checker = run.Checker(workloads.WORKLOADS["verify"], reference)
    assert not checker.check(bad, work)
    assert "reference" in checker.problems[0]


def test_wrong_exit_code_counts_as_failed(tmp_path):
    # ELU with alpha 2 fails the bounded-output claim, so verify exits 1
    inv = run.invoke(run.telulab_cmd(["verify", "--activations", "elu:2.0"]), tmp_path / "out")
    assert inv.returncode == 1
    checker = run.Checker(workloads.WORKLOADS["verify"], {})
    assert not checker.check(inv, tmp_path)
    assert checker.problems == ["out: exit code 1"]


def test_reference_tolerance_admits_reordering_only():
    want = {"rows": [{"acc": 43.75, "loss": 1.2345678901234}], "n": 3}
    reordered = {"rows": [{"acc": 43.75, "loss": 1.2345678901234 * (1 + 1e-13)}], "n": 3}
    changed = {"rows": [{"acc": 43.75, "loss": 1.2345678901234 * (1 + 1e-7)}], "n": 3}
    assert workloads.differences(reordered, want) == []
    assert workloads.differences(changed, want) != []
    assert workloads.differences({**want, "n": 4}, want) != []


def test_inputs_depend_only_on_the_seed(tmp_path):
    def archive(name: str, variant: int) -> dict:
        workloads.prepare_cnn_train(tmp_path / name, variant)
        return {p.name: p.read_bytes() for p in (tmp_path / name / "cifar").iterdir()}

    assert archive("a", 3) == archive("b", 3)
    assert archive("a", 3) != archive("c", 4)


def test_self_time_excludes_children():
    spans = [
        ["harness.train_model", 0.0, 10.0, -1, None],
        ["harness.forward", 1.0, 3.0, 0, None],
        ["kernels.value", 1.5, 2.0, 1, 128],
        ["harness.backward", 3.0, 6.0, 0, None],
        ["harness.step", 6.0, 7.0, 0, None],
        ["harness.evaluate", 8.0, 9.5, 0, None],
        ["harness.forward", 8.0, 9.0, 5, None],
    ]
    m = tracing.summarize([spans])
    assert m["harness.train_fwd_s"] == 2.0
    assert m["harness.train_bwd_s"] == 3.0
    assert m["harness.optim_s"] == 1.0
    assert m["harness.eval_s"] == 1.5
    assert m["harness.self_s"] == 10.0 - 2.0 - 3.0 - 1.0 - 1.5
    assert m["harness.step_ms.p50"] == 6000.0
    assert (m["kernels.calls"], m["kernels.elems"]) == (1.0, 128.0)


def test_benchmark_json_matches_the_benchmark():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    metric_map = json.loads((run.BENCH / "metric_map.json").read_text())
    assert [m["name"] for m in spec["per_layer"]] == list(metric_map)
    assert spec["workloads"] == [{"name": w.name, "why": w.why} for w in workloads.WORKLOADS.values()]
    reference = json.loads(run.REFERENCE.read_text())
    assert all(len(reference[w]) == workloads.VARIANTS for w in workloads.WORKLOADS)

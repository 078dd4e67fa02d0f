"""The telulab benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload from the root of a source checkout.  Each invocation of
the ``telulab`` command line is a fresh child process; the parent records
its wall time, its peak RSS (the largest of any process in it) and whether
its outputs are correct.  ``--trace 0`` reports the end-to-end metrics,
``--trace 1`` the per-layer metrics: a traced invocation split across
modules plus timings of each module's public functions.  The last line of
stdout is the JSON result; the line before it records the environment.
"""

from __future__ import annotations

import os

# One BLAS thread per process, for this process and every child, so that
# ``--jobs`` x BLAS threads stays within the cores; set before numpy loads.
BLAS_THREADS = 1
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse
import json
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
REFERENCE = BENCH / "reference.json"

SETUPS = 3  # set-ups per run; setup_s is their median
MIN_SAMPLES = 3  # timed invocations per run, even when --seconds is short
CHILD_TIMEOUT_S = 20.0  # a hung child is killed and counted failed; keeps a run within 180 s
LAYER_ARCHIVE = (1000, 1000)  # records per train file, test records

if not (SRC / "telulab").is_dir():
    sys.exit(f"error: {SRC / 'telulab'} not found; run from the root of a telulab checkout")
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

import layers  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


@dataclass(frozen=True)
class Invocation:
    returncode: int
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    out: Path


def child_env() -> dict[str, str]:
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=f"{SRC}{os.pathsep}{path}" if path else str(SRC))


def invoke(cmd: list[str], out: Path) -> Invocation:
    """Run ``cmd --out OUT`` to completion; stdout and stderr go to
    ``OUT.log``.  CPU time and peak RSS come from wait4, which covers the
    child and every descendant it waited for (pool workers included)."""
    out.parent.mkdir(parents=True, exist_ok=True)
    with open(out.with_name(out.name + ".log"), "wb") as log:
        t0 = time.perf_counter()
        proc = subprocess.Popen([*cmd, "--out", str(out)], stdout=log, stderr=subprocess.STDOUT,
                                env=child_env(), cwd=ROOT)
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Invocation(proc.returncode, wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0, out)


def telulab_cmd(argv: list[str]) -> list[str]:
    return [sys.executable, "-m", "telulab.cli", *argv]


def artifacts(out: Path) -> dict[str, bytes]:
    """Every output file but metadata.json, which records timings."""
    return {p.name: p.read_bytes() for p in sorted(out.iterdir()) if p.name != "metadata.json"}


class Checker:
    """Counts invocations and failures.  An invocation fails on a non-zero
    exit code, or on artifacts that differ from the run's first
    invocation, whose outputs must match the recorded reference."""

    def __init__(self, workload: workloads.Workload, reference: dict):
        self.workload = workload
        self.reference = reference
        self.first: dict[str, bytes] | None = None
        self.first_problems: list[str] = []
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def check(self, inv: Invocation, work: Path) -> bool:
        self.attempted += 1
        problems = self._problems(inv, work)
        if problems:
            self.failed += 1
            self.problems += [f"{inv.out.name}: {p}" for p in problems]
        return not problems

    def _problems(self, inv: Invocation, work: Path) -> list[str]:
        if inv.returncode != 0:
            return [f"exit code {inv.returncode}"]
        files = artifacts(inv.out)
        if self.first is None:
            self.first = files
            try:
                summary = self.workload.summarize(inv.out, work)
            except (OSError, KeyError, ValueError) as exc:
                self.first_problems = [f"unreadable artifacts: {exc!r}"]
            else:
                self.first_problems = (self.workload.invariants(summary)
                                       + workloads.differences(summary, self.reference, "reference"))
            return self.first_problems
        if files != self.first:
            changed = sorted(k for k in files.keys() | self.first.keys() if files.get(k) != self.first.get(k))
            return [f"artifacts differ from the first invocation: {changed}"]
        return self.first_problems


def setup(workload: workloads.Workload, variant: int, work: Path, checker: Checker) -> tuple[float, list[str]]:
    """Generate the inputs afresh and make one warm-up invocation, which no
    wall_s sample includes; returns the seconds both took and the
    invocation's arguments."""
    inputs = work / "inputs"
    shutil.rmtree(inputs, ignore_errors=True)
    inputs.mkdir(parents=True)
    t0 = time.perf_counter()
    argv = workload.prepare(inputs, variant)
    inv = invoke(telulab_cmd(argv), work / f"warmup{checker.attempted}")
    elapsed = time.perf_counter() - t0
    checker.check(inv, inputs)
    return elapsed, argv


def measure(argv: list[str], seconds: float, work: Path, checker: Checker) -> list[Invocation]:
    """Invocations one after another (a closed loop with one client) until
    ``seconds`` have passed and at least MIN_SAMPLES were made; returns
    those that succeeded, or all of them if none did."""
    ok, failed = [], []
    deadline = time.perf_counter() + seconds
    while len(ok) + len(failed) < MIN_SAMPLES or time.perf_counter() < deadline:
        inv = invoke(telulab_cmd(argv), work / f"run{len(ok) + len(failed)}")
        (ok if checker.check(inv, work / "inputs") else failed).append(inv)
        shutil.rmtree(inv.out, ignore_errors=True)
    return ok or failed


def environment(workload: workloads.Workload) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "blas_threads": BLAS_THREADS,
        "jobs": workload.jobs,
        "cpu_count": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "python": platform.python_version(),
    }


def end_to_end(workload, variant, seconds, work, checker) -> tuple[dict, dict]:
    setups, argv = [], []
    for _ in range(SETUPS):
        elapsed, argv = setup(workload, variant, work, checker)
        setups.append(elapsed)
    done = measure(argv, seconds, work, checker)
    walls = [inv.wall_s for inv in done]
    cpus = [inv.cpu_s for inv in done]
    metrics = {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(walls),
        "cpu_s": statistics.median(cpus),
        "peak_rss_mb": statistics.median(inv.peak_rss_mb for inv in done),
        "ok_ratio": 1.0 - checker.failed / checker.attempted,
    }
    return metrics, {"setup_s": setups, "wall_s": walls, "cpu_s": cpus, **tail_percentile(walls)}


def tail_percentile(walls: list[float]) -> dict:
    """The highest percentile, in steps of 5, with ten samples beyond it."""
    q = 5 * int(20 * (1 - 10 / len(walls)))
    if q <= 50:
        return {}
    return {f"wall_s_p{q}": float(np.percentile(walls, q))}


def per_layer(workload, variant, seconds, work, checker) -> tuple[dict, dict]:
    _, argv = setup(workload, variant, work, checker)
    untraced = statistics.median(inv.wall_s for inv in measure(argv, seconds, work, checker))
    spans = work / "spans.jsonl"
    inv = invoke([sys.executable, str(BENCH / "tracing.py"), str(spans), *argv], work / "traced")
    checker.check(inv, work / "inputs")
    metrics = tracing.summarize(tracing.load_spans(spans))
    metrics["trace.overhead_ratio"] = inv.wall_s / untraced
    metrics["reporting.bytes_written"] = float(sum(p.stat().st_size for p in inv.out.iterdir()))

    rng = np.random.default_rng([variant, 1000])
    metrics.update(layers.kernel_metrics(rng))
    metrics.update(layers.autograd_metrics(rng))
    metrics.update(layers.optim_metrics(rng))
    metrics.update(layers.properties_metrics())
    per_file, n_test = LAYER_ARCHIVE
    archive = work / "layer_archive"
    workloads.write_archive(archive, variant, per_file, n_test)
    config = work / "layer_config.json"
    config.write_text(json.dumps(workloads.cifar_config(archive, per_file, variant, False)))
    metrics.update(layers.config_metrics(config))
    for probe, args in (("data", [archive, 5 * per_file]), ("standardize", [archive, 5 * per_file]),
                        ("battery", [])):
        metrics.update(_child_json([str(BENCH / "layers.py"), probe, *map(str, args)]))
    import_code = "import time; t = time.perf_counter(); import telulab.cli; print(time.perf_counter() - t)"
    metrics["cli.import_s"] = statistics.median(float(_child_json(["-c", import_code])) for _ in range(3))
    return metrics, {"untraced_wall_s": untraced, "traced_wall_s": inv.wall_s}


def _child_json(args: list[str]):
    done = subprocess.run([sys.executable, *args], capture_output=True, text=True, env=child_env(),
                          cwd=ROOT, timeout=CHILD_TIMEOUT_S, check=True)
    return json.loads(done.stdout.splitlines()[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    workload = workloads.WORKLOADS[args.workload]
    variant = args.seed % workloads.VARIANTS
    reference = json.loads(REFERENCE.read_text())[workload.name][str(variant)]
    work = WORK / workload.name
    shutil.rmtree(work, ignore_errors=True)
    checker = Checker(workload, reference)
    try:
        measure_fn = per_layer if args.trace else end_to_end
        metrics, samples = measure_fn(workload, variant, args.seconds, work, checker)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    missing = sorted(set(wanted) - set(metrics))
    if missing:
        sys.exit(f"error: metrics not measured: {missing}")
    for p in checker.problems:
        print(f"problem: {p}", file=sys.stderr)
    print(json.dumps({"workload": workload.name, "seed": args.seed, "variant": variant,
                      "env": environment(workload), "samples": samples}))
    print(json.dumps({
        "correct": checker.failed == 0,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in wanted.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

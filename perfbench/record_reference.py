"""Record the reference outputs the benchmark checks every run against.

    python3 perfbench/record_reference.py [WORKLOAD ...]

For every workload (default: all) and every input variant, generates the
inputs, runs the invocation once, checks the seed-independent invariants
(training learns above chance, the verify battery holds, ...) and stores
the output summary in ``perfbench/reference.json``.  Re-record only when a
change alters what the program computes, and say so with the change.
"""

from __future__ import annotations

import json
import shutil
import sys

import run
import workloads


def record(workload: workloads.Workload, variant: int) -> dict:
    work = run.WORK / "reference" / workload.name
    shutil.rmtree(work, ignore_errors=True)
    inputs = work / "inputs"
    inputs.mkdir(parents=True)
    try:
        inv = run.invoke(run.telulab_cmd(workload.prepare(inputs, variant)), work / "out")
        if inv.returncode != 0:
            raise SystemExit(f"{workload.name} variant {variant}: exit code {inv.returncode}")
        summary = workload.summarize(inv.out, inputs)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    problems = workload.invariants(summary)
    if problems:
        raise SystemExit(f"{workload.name} variant {variant}: {problems}")
    return summary


def main(names: list[str]) -> int:
    reference = json.loads(run.REFERENCE.read_text()) if run.REFERENCE.exists() else {}
    for name in names or list(workloads.WORKLOADS):
        workload = workloads.WORKLOADS[name]
        reference[name] = {str(v): record(workload, v) for v in range(workloads.VARIANTS)}
        print(f"recorded {name}: {workloads.VARIANTS} variants", flush=True)
    run.REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

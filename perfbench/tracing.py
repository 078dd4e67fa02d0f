"""Traced ``telulab`` invocation, from the benchmark's own files only.

Run as ``python3 perfbench/tracing.py SPANS_FILE TELULAB_ARGS...``: wraps the
names the program looks up at call time (``harness.forward``, ``backward``,
``step``, ``softmax_cross_entropy``, ``materialize_datasets``, ``_evaluate``,
``data.batch_iter``, ``kernels.value``, ``kernels.derivative``,
``reporting.write_*``) in spans, runs ``telulab.cli.main`` and writes the
spans when it returns.  Spans stay in memory until then.  Pool workers are
forked children: each writes its own spans beside ``SPANS_FILE`` after
every trial.

:func:`summarize` turns the span files into the per-layer metrics.
"""

from __future__ import annotations

import concurrent.futures
import functools
import json
import os
import sys
import time
from pathlib import Path

import numpy as np

# span record: [name, start, end, parent index or -1, elements or extra]
NAME, START, END, PARENT, EXTRA = range(5)


class Recorder:
    def __init__(self, path: Path):
        self.path = path
        self.main_pid = os.getpid()
        self.reset()

    def reset(self) -> None:
        self.spans: list[list] = []
        self.stack: list[int] = []

    def open(self, name: str, extra=None) -> list:
        span = [name, time.perf_counter(), 0.0, self.stack[-1] if self.stack else -1, extra]
        self.stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def close(self) -> None:
        self.spans[self.stack.pop()][END] = time.perf_counter()

    def flush(self) -> None:
        """Append this process's closed spans to its own file and drop them."""
        pid = os.getpid()
        path = self.path if pid == self.main_pid else self.path.with_name(f"{self.path.name}.{pid}")
        with path.open("a") as fh:
            fh.write(json.dumps(self.spans) + "\n")
        self.reset()

    def wrap(self, name: str, fn, extra=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self.open(name, extra(args) if extra else None)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close()

        return traced

    def wrap_iter(self, name: str, fn):
        """Each ``next()`` of the generator ``fn`` returns is one span."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            it = fn(*args, **kwargs)
            while True:
                self.open(name)
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    self.close()
                yield item

        return traced


def install(rec: Recorder) -> None:
    from telulab import cli, data, harness, kernels, reporting

    for fn_name in ("value", "derivative"):
        setattr(kernels, fn_name, rec.wrap(f"kernels.{fn_name}", getattr(kernels, fn_name),
                                           lambda args: int(np.size(args[1]))))
    data.batch_iter = rec.wrap_iter("data.batch_iter", data.batch_iter)
    for fn_name in ("forward", "backward", "step", "softmax_cross_entropy", "train_model"):
        setattr(harness, fn_name, rec.wrap(f"harness.{fn_name}", getattr(harness, fn_name)))
    harness._evaluate = rec.wrap("harness.evaluate", harness._evaluate)
    # the CLI calls these two through its own imported names
    for fn_name in ("materialize_datasets", "empirical_fisher_diag"):
        traced = rec.wrap(f"harness.{fn_name}", getattr(harness, fn_name))
        setattr(harness, fn_name, traced)
        setattr(cli, fn_name, traced)
    for fn_name in dir(reporting):
        if fn_name.startswith("write_"):
            setattr(reporting, fn_name, rec.wrap(f"reporting.{fn_name}", getattr(reporting, fn_name)))

    run_trial = harness.run_trial

    @functools.wraps(run_trial)
    def traced_run_trial(cfg):
        try:
            return run_trial(cfg)
        finally:
            if os.getpid() != rec.main_pid:
                rec.flush()

    # pickled by name into pool workers, which look it up in harness again
    harness.run_trial = traced_run_trial

    run_trials = harness._run_trials

    @functools.wraps(run_trials)
    def traced_run_trials(configs, jobs):
        span = rec.open("harness.run_trials", {"workers": 0, "trial_wall_s": 0.0})
        try:
            results = run_trials(configs, jobs)
        finally:
            rec.close()
        if jobs > 1 and len(configs) > 1:
            span[EXTRA]["workers"] = jobs
        span[EXTRA]["trial_wall_s"] = sum(r.wall_time for r in results)
        return results

    harness._run_trials = traced_run_trials

    class CountedPool(concurrent.futures.ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            rec.open("harness.pool_created")
            rec.close()
            super().__init__(*args, **kwargs)

    concurrent.futures.ProcessPoolExecutor = CountedPool
    os.register_at_fork(after_in_child=rec.reset)


def main(argv: list[str]) -> int:
    rec = Recorder(Path(argv[0]))
    install(rec)
    from telulab import cli

    try:
        return cli.main(argv[1:])
    finally:
        rec.flush()


# --- analysis ----------------------------------------------------------------------


def load_spans(path: Path) -> list[list[list]]:
    """One span list per process: the main process first, then workers."""
    files = [path] + sorted(path.parent.glob(path.name + ".*"))
    procs = []
    for f in files:
        spans: list[list] = []
        for line in f.read_text().splitlines():
            batch = json.loads(line)
            # parent indices are relative to their flushed batch
            offset = len(spans)
            spans += [[s[NAME], s[START], s[END], s[PARENT] + offset if s[PARENT] >= 0 else -1, s[EXTRA]]
                      for s in batch]
        procs.append(spans)
    return procs


def _self_times(spans: list[list]) -> list[float]:
    own = [s[END] - s[START] for s in spans]
    for s in spans:
        if s[PARENT] >= 0:
            own[s[PARENT]] -= s[END] - s[START]
    return own


def _under(spans: list[list], i: int, name: str) -> bool:
    p = spans[i][PARENT]
    while p >= 0:
        if spans[p][NAME] == name:
            return True
        p = spans[p][PARENT]
    return False


def _step_times(spans: list[list]) -> list[float]:
    """Each training step (or Fisher sample) runs from a forward outside
    evaluation to the end of the backward or optimizer step after it."""
    out, start, end = [], None, None
    for i, s in enumerate(spans):
        if s[NAME] == "harness.forward" and not _under(spans, i, "harness.evaluate"):
            if start is not None and end is not None:
                out.append(end - start)
            start, end = s[START], None
        elif s[NAME] in ("harness.backward", "harness.step") and start is not None:
            end = s[END]
    if start is not None and end is not None:
        out.append(end - start)
    return out


# spans whose duration goes to one share of the traced wall time, outside evaluation
SHARE = {
    "harness.materialize_datasets": "harness.load_s",
    "data.batch_iter": "harness.load_s",
    "harness.forward": "harness.train_fwd_s",
    "harness.softmax_cross_entropy": "harness.train_fwd_s",
    "harness.backward": "harness.train_bwd_s",
    "harness.step": "harness.optim_s",
}


def summarize(procs: list[list[list]]) -> dict[str, float]:
    """Per-layer metrics of one traced invocation, summed over processes."""
    out = dict.fromkeys([*SHARE.values(), "harness.eval_s", "harness.self_s", "reporting.write_s"], 0.0)
    calls = elems = pools = 0
    trial_wall = section_capacity = 0.0
    steps: list[float] = []
    for spans in procs:
        own = _self_times(spans)
        steps += _step_times(spans)
        for i, s in enumerate(spans):
            name, dur = s[NAME], s[END] - s[START]
            if name.startswith("kernels."):
                calls += 1
                elems += s[EXTRA]
            elif name == "harness.pool_created":
                pools += 1
            elif name == "harness.run_trials" and s[EXTRA]["workers"]:
                trial_wall += s[EXTRA]["trial_wall_s"]
                section_capacity += s[EXTRA]["workers"] * dur
            elif name.startswith("reporting.write_"):
                out["reporting.write_s"] += dur
            elif name == "harness.evaluate":
                out["harness.eval_s"] += dur
            elif name in ("harness.train_model", "harness.empirical_fisher_diag"):
                out["harness.self_s"] += own[i]
            elif name in SHARE and not _under(spans, i, "harness.evaluate"):
                out[SHARE[name]] += dur
    ms = np.array(steps) * 1e3
    out["harness.step_ms.p50"] = float(np.percentile(ms, 50)) if len(ms) else 0.0
    out["harness.step_ms.p90"] = float(np.percentile(ms, 90)) if len(ms) else 0.0
    out["harness.pools_created"] = float(pools)
    out["harness.parallel_efficiency"] = trial_wall / section_capacity if section_capacity else 0.0
    out["kernels.calls"] = float(calls)
    out["kernels.elems"] = float(elems)
    return out


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

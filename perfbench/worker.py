"""One repetition of one workload, in a fresh interpreter.

Usage: python3 perfbench/worker.py WORKLOAD SEED TRACED CHECK SIZE

``run.py`` starts this script once per repetition, so every repetition
begins with empty library caches, as a command-line user's process does.
It builds the seeded inputs, runs the workload's fixed job list (timed,
and traced when TRACED is 1), runs the output checks when CHECK is 1, and
prints one JSON object on stdout.  SIZE is ``full`` or ``tiny``.

Between jobs, at most every REFERENCE_INTERVAL_S, it times a fixed
reference computation, and once more after the last job.  On a shared host
the processor's speed drifts by more than a tenth within seconds and over
minutes, and the drift moves this computation and the library's calls
alike, so ``run.py`` reports the end-to-end timings in units of it.  The
samples are kept out of every reported time.
"""

from __future__ import annotations

import gc
import json
import statistics
import subprocess
import sys
import time
from contextlib import contextmanager
from fractions import Fraction

from orbitopes import compositions

import workloads

# The library caches whose statistics the traced run reads around each job.
CACHED = ("splits", "restrict_contract", "compositions_of")
REFERENCE_INTERVAL_S = 0.05


def _cache_snapshot() -> dict:
    out = {}
    for name in CACHED:
        info = getattr(getattr(compositions, name, None), "cache_info", None)
        out[name] = info() if info else None
    return out


class Harness:
    """Times each call into the library; in traced mode also records spans.

    A span is (id, name, start, end, parent id, job id).  Spans stay in
    memory and travel back to ``run.py`` with the repetition's result.
    """

    def __init__(self, traced: bool):
        self.traced = traced
        self.first_start_monotonic = None
        self.start = None
        self.end = None
        self.jobs = []
        self.outputs = []
        self.spans = []
        self.sections = {}
        self.counts = {}
        self.cache = {name: [0, 0, 0] for name in CACHED}
        self.refs = []  # durations of the reference samples, in seconds
        self.ref_total = 0.0
        self.ref_before_last_job = 0.0
        self._last_ref = float("-inf")
        self._parent = None

    def call(self, name: str, fn, *args, **meta):
        """Run one job, a single public call, and record its latency and outcome."""
        if self.first_start_monotonic is None:
            self.first_start_monotonic = time.monotonic()
        before = _cache_snapshot() if self.traced else None
        self.ref_before_last_job = self.ref_total
        t0 = time.perf_counter()
        try:
            out = fn(*args)
            error = None
        except Exception as exc:  # a raised job is counted as failed, the run goes on
            out = None
            error = f"raised {type(exc).__name__}"
        t1 = time.perf_counter()
        if self.start is None:
            self.start = t0
        self.end = t1
        job_id = len(self.jobs)
        # "ref" is the index of the reference sample that follows the job
        self.jobs.append({"name": name, "ms": (t1 - t0) * 1e3, "error": error, "ref": len(self.refs), **meta})
        self.outputs.append(out)
        if self.traced:
            self.spans.append((len(self.spans), name, t0, t1, self._parent, job_id))
            self._add_cache_delta(before, _cache_snapshot())
        if time.perf_counter() - self._last_ref >= REFERENCE_INTERVAL_S:
            self.reference()
        return out

    def reference(self) -> None:
        """Time one run of the reference computation, with the collector paused."""
        gc.disable()
        t0 = time.perf_counter()
        reference_kernel()
        t1 = time.perf_counter()
        gc.enable()
        self.refs.append(t1 - t0)
        self.ref_total += t1 - t0
        self._last_ref = t1

    @property
    def wall_s(self) -> float:
        """First job's start to last job's end, less the reference samples between them."""
        return self.end - self.start - self.ref_before_last_job

    def count(self, name: str, value) -> None:
        """Add to a per-layer count; only the traced run reports counts."""
        if self.traced:
            self.counts[name] = self.counts.get(name, 0) + value

    @contextmanager
    def section(self, name: str):
        """Group the jobs of one pass; its duration is reported on its own."""
        span_id = len(self.spans)
        if self.traced:
            self.spans.append(None)
        outer, self._parent = self._parent, span_id
        ref0 = self.ref_total
        t0 = time.perf_counter()
        try:
            yield
        finally:
            t1 = time.perf_counter()
            self._parent = outer
            self.sections[name] = t1 - t0 - (self.ref_total - ref0)
            if self.traced:
                self.spans[span_id] = (span_id, name, t0, t1, outer, None)

    def _add_cache_delta(self, before: dict, after: dict) -> None:
        for name in CACHED:
            if before[name] is None or after[name] is None:
                continue
            acc = self.cache[name]
            acc[0] += after[name].hits - before[name].hits
            acc[1] += after[name].misses - before[name].misses
            acc[2] = after[name].currsize

    def fail(self, job_id: int, reason: str) -> None:
        """Mark a job as failed by an output check, keeping an earlier error."""
        job = self.jobs[job_id]
        if job["error"] is None:
            job["error"] = reason


def reference_kernel() -> int:
    """A few milliseconds of pure-Python work: exact rationals, tuple-keyed dicts, small integers."""
    acc = {}
    x = Fraction(1, 3)
    for i in range(600):
        x = x * Fraction(7, 5) - Fraction(i, 11)
        if x.numerator.bit_length() > 200:
            x = Fraction(1, 3)
        key = (i % 97, i % 13)
        acc[key] = acc.get(key, 0) + x.numerator % 1009
    total = 0
    for i in range(8000):
        total += i * i % 7
    return total + sum(acc.values())


def interpreter_costs() -> dict:
    """Median spawn-to-exit time of a bare interpreter and of one importing the CLI."""
    samples = {"pass": [], "import orbitopes.cli": []}
    for _ in range(3):
        for code, into in samples.items():
            t0 = time.perf_counter()
            subprocess.run([sys.executable, "-c", code], check=True)
            into.append((time.perf_counter() - t0) * 1e3)
    bare, loaded = (statistics.median(v) for v in samples.values())
    return {"interpreter_ms": bare, "import_ms": loaded - bare}


def main(argv: list[str]) -> int:
    name, seed, traced, check, size = argv
    harness = Harness(traced == "1")
    workload = workloads.WORKLOADS[name](int(seed), size == "tiny")
    try:
        workload.run(harness)
        harness.reference()
        peak_rss_mb = workload.peak_rss_kb() / 1024
        digests = workload.digests(harness)
        if check == "1":
            workload.check(harness, digests)
        extra = workload.extra(harness)
        if harness.traced:
            extra.update(interpreter_costs())
    finally:
        workload.close()
    result = {
        "first_job_monotonic": harness.first_start_monotonic,
        "wall_s": harness.wall_s,
        "refs": harness.refs,
        "sections": harness.sections,
        "peak_rss_mb": peak_rss_mb,
        "jobs": harness.jobs,
        "digests": digests,
        "counts": harness.counts,
        "cache": harness.cache,
        "spans": harness.spans,
        "extra": extra,
    }
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

"""Benchmark of the orbitopes library and CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs from the root of a checkout.  The workload's fixed job list is
repeated, each repetition in a fresh interpreter (``worker.py``) so the
library's caches start empty, as long as the next repetition is expected
to end within S seconds (at least three repetitions).  Repetitions run
one after another from this process, which never has more than one child
alive.  The first repetition's outputs are
checked against independent oracles; later repetitions must reproduce
them exactly.

``--workload all`` runs every workload in turn, each with its own report.
``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
traced and untraced repetitions and reports the per-layer metrics computed
from the spans, plus the tracing overhead; its spans are written to
``perfbench/.work/trace-NAME.jsonl`` when the run ends.  ``--tiny`` shrinks
every job list for a quick check of the benchmark itself.

The end-to-end timings other than setup_s are in ``ref``: each job's
latency is divided by the median of the three samples of a fixed
reference computation (``worker.reference_kernel``, a few milliseconds)
timed nearest to it, between jobs.  A shared host's speed drifts by more
than a tenth within seconds and over minutes, moving the library's calls
and the reference alike; the ratio holds still.  The report also prints
the raw seconds and milliseconds.

The last line of stdout is one JSON object: correct, attempted, failed and
metrics.  The exit code is 1 when an output check fails, or a job fails
other than by one of the known CLI defects, and 2 when the run cannot be
made at all.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("char_series", "hopf_invariants", "geometry_oracles", "cli_requests")
MIN_REPS = 3
TIME_LIMIT_S = 170  # a run must end well inside three minutes

END_TO_END = {
    "setup_s": "s",
    "wall_ref": "ref",
    "job_p50_ref": "ref",
    "job_p90_ref": "ref",
    "peak_rss_mb": "MB",
    "ok_ratio": "1",
}

FUNCTIONS = {
    "characters": ("convolve", "invert_character", "char_to_series", "series_mul", "series_inverse"),
    "hopf_algebra": ("coproduct", "antipode"),
    "invariants": ("chi", "chi_bruteforce"),
    "hopf_monoid": ("count_structures",),
    "geometry": ("orbit_vertices", "check_base_polytope", "chamber_census",
                 "max_face_vertices", "normally_equivalent"),
}
CLI_SUBCOMMANDS = ("classify", "vertices", "maxface", "normeq", "delta", "coproduct", "antipode",
                   "chi", "convolve", "series-mul", "series-inv", "count", "selftest")
CACHED = ("splits", "restrict_contract", "compositions_of")
COUNTS = {
    "characters.convolve.cuts": "count",
    "characters.invert_character.cuts": "count",
    "characters.series_mul.pairs_visited": "count",
    "hopf_algebra.antipode.terms_out": "count",
    "hopf_algebra.coproduct.terms_out": "count",
    "invariants.chi.refinements": "count",
    "hopf_monoid.count_structures.failed": "count",
    "geometry.orbit_vertices.vertices": "count",
    "geometry.check_base_polytope.vertex_subset_pairs": "count",
    "geometry.chamber_census.chambers": "count",
}


def per_layer_units() -> dict[str, str]:
    units = {}
    for module, functions in FUNCTIONS.items():
        for fn in functions:
            units[f"{module}.{fn}.calls"] = "count"
            units[f"{module}.{fn}.busy_s"] = "s"
            units[f"{module}.{fn}.p50_ms"] = "ms"
        units[f"{module}.self_s"] = "s"
    units["hopf_algebra.antipode.cold_busy_s"] = "s"
    units["hopf_algebra.antipode.warm_busy_s"] = "s"
    units["characters.series_mul.useful_ratio"] = "1"
    units.update(COUNTS)
    for name in CACHED:
        units[f"compositions.{name}.hit_ratio"] = "1"
        units[f"compositions.{name}.currsize"] = "count"
    for sub in CLI_SUBCOMMANDS:
        units[f"cli.{sub}.p50_ms"] = "ms"
    units.update({
        "cli.self_s": "s",
        "cli.interpreter_ms": "ms",
        "cli.import_ms": "ms",
        "cli.unexpected_exit": "count",
        "bench.self_s": "s",
        "trace.spans": "count",
        "trace.overhead_ratio": "1",
    })
    return units


class RunError(Exception):
    """The benchmark could not be run; no result is printed."""


def spawn(workload: str, seed: int, traced: bool, check: bool, tiny: bool, timeout: float) -> dict:
    """Run one repetition in a fresh interpreter and return its result."""
    cmd = [sys.executable, str(HERE / "worker.py"), workload, str(seed),
           str(int(traced)), str(int(check)), "tiny" if tiny else "full"]
    # a fixed hash seed makes a repetition's set and dict orders depend on --seed alone
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED=str(seed % 2 ** 32))
    spawned = time.monotonic()
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, env=env, cwd=ROOT, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise RunError(f"repetition did not finish within {timeout:.0f} s") from exc
    if proc.returncode != 0 or not proc.stdout.strip():
        tail = "\n".join(proc.stderr.strip().splitlines()[-5:])
        raise RunError(f"worker exited with code {proc.returncode}:\n{tail}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["traced"] = traced
    # CLOCK_MONOTONIC is shared by all processes, so this spans interpreter start and imports
    result["setup_s"] = result["first_job_monotonic"] - spawned
    return result


def repeat(args, workload: str) -> list[dict]:
    """Repeat until the next repetition would end after --seconds (at least MIN_REPS)."""
    reps = []
    durations = []
    start = time.monotonic()
    while True:
        elapsed = time.monotonic() - start
        if len(reps) >= MIN_REPS and elapsed + statistics.median(durations[1:]) > args.seconds:
            break
        if durations and elapsed + 2 * max(durations) > TIME_LIMIT_S:
            break
        traced = args.trace == 1 and len(reps) % 2 == 0
        t0 = time.monotonic()
        reps.append(spawn(workload, args.seed, traced, not reps, args.tiny,
                          TIME_LIMIT_S - elapsed))
        durations.append(time.monotonic() - t0)
    return reps


def judge_failures(reps: list[dict]) -> None:
    """Carry the first repetition's check results to the later, unchecked ones."""
    reference = reps[0]
    for rep in reps[1:]:
        if len(rep["jobs"]) != len(reference["jobs"]):
            raise RunError("repetitions ran different job lists")
        for job, ref_job, digest, ref_digest in zip(
            rep["jobs"], reference["jobs"], rep["digests"], reference["digests"]
        ):
            if job["error"] is None:
                if digest != ref_digest:
                    job["error"] = "output differs from the checked repetition"
                else:
                    job["error"] = ref_job["error"]


def tail_percentile(samples: list[float], p: float, tail: int = 10) -> tuple[float, float, int]:
    """Nearest-rank percentile, lowered until ``tail`` samples lie beyond it."""
    xs = sorted(samples)
    n = len(xs)
    rank = math.ceil(p / 100 * n)
    if n - rank < tail:
        rank = max(1, n - tail)
    return xs[rank - 1], 100 * rank / n, n - rank


def relative_latencies(rep: dict) -> list[float]:
    """Each job's latency over the median of the three reference samples nearest it."""
    refs = rep["refs"]
    return [job["ms"] / (1e3 * statistics.median(refs[max(0, job["ref"] - 1):job["ref"] + 2]))
            for job in rep["jobs"]]


def end_to_end(workload: str, reps: list[dict], attempted: int, failed: int) -> tuple[dict, list[str]]:
    latencies = [job["ms"] for rep in reps for job in rep["jobs"]]
    by_rep = [relative_latencies(rep) for rep in reps]
    relative = [x for xs in by_rep for x in xs]
    p90, p_used, beyond = tail_percentile(latencies, 90)
    p90_ref = tail_percentile(relative, 90)[0]
    walls = [r["wall_s"] for r in reps]
    values = {
        "setup_s": statistics.median(r["setup_s"] for r in reps),
        "wall_ref": statistics.median(sum(xs) for xs in by_rep),
        "job_p50_ref": statistics.median(relative),
        "job_p90_ref": p90_ref,
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in reps),
        "ok_ratio": 1 - failed / attempted,
    }
    notes = {
        "setup_s": f"median of {len(reps)} fresh interpreters, start to first timed job",
        "wall_ref": f"median of {len(reps)} repetitions of the fixed job list, the sum of its job latencies in ref",
        "job_p50_ref": f"median of n={len(relative)} job latencies in ref",
        "job_p90_ref": f"p{p_used:.1f} of the same n={len(relative)}, {beyond} samples beyond it",
        "peak_rss_mb": "median high-water RSS of the process doing the work"
                       + (", the largest CLI child" if workload == "cli_requests" else ""),
        "ok_ratio": "1 - fail_ratio",
    }
    raw = [
        ("wall_s", statistics.median(walls), "s",
         f"median of {len(reps)} repetitions (fastest {min(walls):.4f}, slowest {max(walls):.4f})"),
        ("job_p50_ms", statistics.median(latencies), "ms", f"median of n={len(latencies)} job latencies"),
        ("job_p90_ms", p90, "ms", f"p{p_used:.1f} of n={len(latencies)}, {beyond} samples beyond it"),
        ("ref_ms", 1e3 * statistics.median(x for r in reps for x in r["refs"]), "ms",
         "median duration of the reference computation, the unit ref"),
        ("fail_ratio", failed / attempted, "1", f"{failed} failed / {attempted} attempted"),
    ]
    lines = [f"  {name:<14}{values[name]:>14.4f} {unit:<3} {notes[name]}" for name, unit in END_TO_END.items()]
    lines += [f"  {name:<14}{value:>14.4f} {unit:<3} {note}" for name, value, unit, note in raw]
    sections = sorted({name for r in reps for name in r["sections"]})
    for name in sections:
        median = statistics.median(r["sections"][name] for r in reps if name in r["sections"])
        lines.append(f"  {name + '_s':<14}{median:>14.4f} s   median time of this part of the job list")
    return values, lines


def self_times(spans: list) -> dict[int, float]:
    """Each span's duration minus the time its child spans cover."""
    own = {s[0]: s[3] - s[2] for s in spans}
    for s in spans:
        if s[4] is not None:
            own[s[4]] -= s[3] - s[2]
    return own


def per_layer(reps: list[dict]) -> dict:
    traced = [r for r in reps if r["traced"]]
    untraced = [r for r in reps if not r["traced"]]
    units = per_layer_units()
    per_rep = []
    durations: dict[str, list[float]] = {}
    for rep in traced:
        spans = [tuple(s) for s in rep["spans"]]
        own = self_times(spans)
        names = {s[0]: s[1] for s in spans}
        values: dict[str, float] = dict.fromkeys(units, 0.0)
        calls_busy = 0.0
        for s in spans:
            if s[5] is None:  # a section span: the benchmark's own time between calls
                continue
            name, busy = s[1], own[s[0]]
            module = name.split(".")[0]
            calls_busy += busy
            durations.setdefault(name, []).append((s[3] - s[2]) * 1e3)
            if f"{name}.calls" in values:
                values[f"{name}.calls"] += 1
                values[f"{name}.busy_s"] += busy
            values[f"{module}.self_s"] += busy
            if name == "hopf_algebra.antipode" and s[4] is not None:
                values[f"{name}.{names[s[4]].split('.')[-1]}_busy_s"] += busy
        values["bench.self_s"] = rep["wall_s"] - calls_busy
        for name, total in rep["counts"].items():
            if name in values:
                values[name] = total
        pairs = rep["counts"].get("characters.series_mul.pairs_visited")
        if pairs:
            values["characters.series_mul.useful_ratio"] = rep["counts"]["characters.series_mul.terms_out"] / pairs
        for name, (hits, misses, currsize) in rep["cache"].items():
            values[f"compositions.{name}.hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
            values[f"compositions.{name}.currsize"] = currsize
        values["cli.unexpected_exit"] = sum(
            1 for job in rep["jobs"] if job.get("traceback") or job.get("exit") not in (None, 0, 1, 2))
        values["cli.interpreter_ms"] = rep["extra"].get("interpreter_ms", 0.0)
        values["cli.import_ms"] = rep["extra"].get("import_ms", 0.0)
        values["trace.spans"] = len(spans)
        per_rep.append(values)
    metrics = {name: statistics.median(v[name] for v in per_rep) for name in units}
    for name, samples in durations.items():
        key = f"{name}.p50_ms"
        if key in metrics:
            metrics[key] = statistics.median(samples)
    # whole repetitions, so the tracing work between the timed calls counts
    metrics["trace.overhead_ratio"] = (
        statistics.median(r["wall_s"] / statistics.median(r["refs"]) for r in traced)
        / statistics.median(r["wall_s"] / statistics.median(r["refs"]) for r in untraced)
    )
    return metrics


def git_sha() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def write_spans(workload: str, reps: list[dict]) -> Path:
    path = HERE / ".work" / f"trace-{workload}.jsonl"
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w") as fh:
        for i, rep in enumerate(r for r in reps if r["traced"]):
            for span_id, name, start, end, parent, job in rep["spans"]:
                fh.write(json.dumps({"rep": i, "id": span_id, "name": name, "start": start,
                                     "end": end, "parent": parent, "job": job}) + "\n")
    return path


def report(args, workload: str) -> int:
    """Run one workload, print its report and result line, and return the exit code."""
    try:
        reps = repeat(args, workload)
        judge_failures(reps)
    except RunError as exc:
        print(f"perfbench: {workload}: {exc}", file=sys.stderr)
        return 2

    jobs = [job for rep in reps for job in rep["jobs"]]
    attempted = len(jobs)
    failed_jobs = [job for job in jobs if job["error"]]
    unexpected = [job for job in failed_jobs if not job.get("defect")]
    print(f"orbitopes benchmark  workload={workload} seed={args.seed} trace={args.trace} "
          f"reps={len(reps)} python={platform.python_version()} nproc={os.cpu_count()} git_sha={git_sha()}")
    if args.trace:
        metrics = per_layer(reps)
        units = per_layer_units()
        for name, value in metrics.items():
            print(f"  {name:<50}{value:>16.6g} {units[name]}")
        print(f"  spans written to {write_spans(workload, reps).relative_to(ROOT)}")
    else:
        metrics, lines = end_to_end(workload, reps, attempted, len(failed_jobs))
        units = END_TO_END
        print("\n".join(lines))
    defects = reps[0]["extra"].get("defects", {})
    seen = set()
    for job in failed_jobs:
        key = (job.get("defect"), job["name"], job["error"])
        if key not in seen:
            seen.add(key)
            if job.get("defect"):
                print(f"  known defect {job['defect']}: {job['error']}; {defects[job['defect']]}")
            else:
                print(f"  UNEXPECTED FAILURE {job['name']}: {job['error']}")
    correct = not unexpected
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": len(failed_jobs),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }), flush=True)
    return 0 if correct else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",),
                        help="one workload, or all of them one after another")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="shrink every job list (quick self-check)")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "orbitopes" / "__init__.py").is_file():
        print(f"perfbench: no orbitopes package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    return max([report(args, workload) for workload in workloads])


if __name__ == "__main__":
    sys.exit(main())

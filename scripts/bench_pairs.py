#!/usr/bin/env python3
"""Alternating parent/change pairs of perfbench runs, summarized against BENCHMARK.json.

Usage: python3 scripts/bench_pairs.py --parent DIR --workload NAME --pairs N --out FILE [--seed S]

DIR is a checkout of the parent, prepared beforehand; the change is the
checkout holding this script.  Neither is run where it lies: each side's
``src``, ``perfbench`` and ``BENCHMARK.json`` are first copied, without
``__pycache__`` directories or ``perfbench/.work``, into its own fresh
directory, ``parent`` or ``change``, of one temporary directory that is
removed at the end.  The two sides then run from directories of the same
shape: a CLI request started as ``python -c`` puts its directory first on
``sys.path``, and a git checkout with more entries than a plain copy reads
1-3% slower on every request whatever the code.  Every run is made with
PYTHONDONTWRITEBYTECODE=1 and no PYTHONPATH, so that each run compiles
from source every module it imports, as a run in a fresh checkout does.
Pair i runs

    python3 perfbench/run.py --workload NAME --seed S+i --seconds 32 --trace 0

once in each copy, one run at a time, the parent first for odd seeds
and the change first for even ones.  FILE gets, per workload, every run's
end-to-end metrics and a summary of each metric named in the change's
BENCHMARK.json: the value of each pair, both medians and quartiles, the
number of pairs in which the change is better, and the bound check.  An
existing FILE keeps its other workloads and top-level keys.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SECONDS = 32


def quartiles(values: list[float]) -> list[float]:
    if len(values) < 2:
        return [values[0], values[0]]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return [q1, q3]


def summarize(pairs: list[dict], end_to_end: list[dict]) -> dict:
    """Per-metric comparison of alternating pairs.

    ``pairs`` holds one ``{"seed", "parent", "change"}`` per pair, each side
    a run's metric values by name; ``end_to_end`` is BENCHMARK.json's list of
    ``{"name", "better", "bound"}``.  The change is within a bound when its
    median is worse than the parent's by at most that fraction of the
    parent's median, and resolved as better when its median is better by
    more than the parent's interquartile range.
    """
    summary = {
        "pairs": len(pairs),
        "seeds": [pair["seed"] for pair in pairs],
        "all_ok": all(pair[side]["ok"] for pair in pairs for side in ("parent", "change")),
    }
    for metric in end_to_end:
        name, lower = metric["name"], metric["better"] == "lower"
        per_pair = [[pair["parent"][name], pair["change"][name]] for pair in pairs]
        parent = [p for p, _ in per_pair]
        change = [c for _, c in per_pair]
        p_med, c_med = statistics.median(parent), statistics.median(change)
        p_q = quartiles(parent)
        worse_by = (c_med - p_med) if lower else (p_med - c_med)
        summary[name] = {
            "parent_median": p_med,
            "change_median": c_med,
            "ratio": c_med / p_med if p_med else None,
            "parent_q1_q3": p_q,
            "change_q1_q3": quartiles(change),
            "change_better_pairs": sum((c < p) if lower else (c > p) for p, c in per_pair),
            "better_by_more_than_parent_iqr": -worse_by > p_q[1] - p_q[0],
            "bound": metric["bound"],
            "within_bound": worse_by <= metric["bound"] * abs(p_med),
            "per_pair": per_pair,
        }
    return summary


def plain_copy(checkout: Path, dest: Path) -> Path:
    """Copy what a benchmark run reads of ``checkout`` into a new directory ``dest``."""
    dest.mkdir()
    for top in ("src", "perfbench"):
        shutil.copytree(checkout / top, dest / top,
                        ignore=shutil.ignore_patterns("__pycache__", ".work"))
    shutil.copy(checkout / "BENCHMARK.json", dest / "BENCHMARK.json")
    return dest


def run_once(checkout: Path, workload: str, seed: int, env: dict) -> dict:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(SECONDS), "--trace", "0"],
        cwd=checkout, env=env, capture_output=True, text=True,
    )
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise SystemExit(f"bench_pairs: no report from {checkout} (exit {proc.returncode}):\n"
                         f"{proc.stderr}")
    report = json.loads(lines[-1])
    run = {name: entry["value"] for name, entry in report["metrics"].items()}
    run.update(correct=report["correct"], attempted=report["attempted"],
               failed=report["failed"], exit=proc.returncode,
               ok=report["correct"] and proc.returncode == 0)
    return run


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True, help="checkout of the parent")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seed", type=int, default=1, help="seed of the first pair")
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error(f"--pairs must be positive, got {args.pairs}")
    parent = args.parent.resolve()
    if not (parent / "perfbench" / "run.py").is_file():
        parser.error(f"--parent {parent} holds no perfbench/run.py")
    end_to_end = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]

    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    pairs = []
    with tempfile.TemporaryDirectory(prefix="bench_pairs-") as tmp:
        sides = {"parent": plain_copy(parent, Path(tmp) / "parent"),
                 "change": plain_copy(ROOT, Path(tmp) / "change")}
        for seed in range(args.seed, args.seed + args.pairs):
            order = ("parent", "change") if seed % 2 else ("change", "parent")
            pair = {"seed": seed}
            for side in order:
                pair[side] = run_once(sides[side], args.workload, seed, env)
            pairs.append(pair)
            print(f"{args.workload} seed {seed}: " + "  ".join(
                f"{m['name']} {pair['parent'][m['name']]:.4g} -> {pair['change'][m['name']]:.4g}"
                for m in end_to_end), flush=True)

    out = json.loads(args.out.read_text()) if args.out.exists() else {}
    out["command"] = (f"python3 perfbench/run.py --workload W --seed S --seconds {SECONDS} "
                      "--trace 0 in plain copies of src, perfbench and BENCHMARK.json, "
                      "parent first for odd seeds, change first for even seeds")
    out["host"] = {"python": platform.python_version(), "nproc": os.cpu_count(),
                   "machine": platform.machine()}
    out.setdefault("summary", {})[args.workload] = summarize(pairs, end_to_end)
    out.setdefault("runs", {})[args.workload] = {
        f"{pair['seed']}.{side}": pair[side] for pair in pairs for side in ("parent", "change")
    }
    args.out.write_text(json.dumps(out, indent=1) + "\n")
    summary = out["summary"][args.workload]
    for m in end_to_end:
        s = summary[m["name"]]
        print(f"{m['name']:<12} {s['parent_median']:.6g} -> {s['change_median']:.6g}  "
              f"better in {s['change_better_pairs']}/{len(pairs)}  "
              f"within bound: {s['within_bound']}")
    return 0 if summary["all_ok"] else 1


if __name__ == "__main__":
    sys.exit(main())

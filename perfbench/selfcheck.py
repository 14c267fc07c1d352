"""Quick check of the benchmark itself, at tiny sizes.

    python3 perfbench/selfcheck.py

1. ``--workload all``, untraced and traced, exits 0, and every workload
   reports correct=true and every metric that BENCHMARK.json names, with
   its unit.
2. In a copy of the checkout whose series product is wrong, the
   char_series run reports correct=false and exits non-zero.
3. In a directory holding only BENCHMARK.json and perfbench/, the run
   exits non-zero without printing a result.
4. The oracles used by the checks agree with the library on small inputs.

Copies live under perfbench/.work and are removed afterwards.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WRONG_PRODUCT = """

_exact_series_mul = series_mul


def series_mul(*args, **kwargs):
    return 2 * _exact_series_mul(*args, **kwargs)
"""


def bench(root: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7",
         "--seconds", "0", "--trace", str(trace), "--tiny"],
        cwd=root, capture_output=True, text=True, timeout=600,
    )


def result_lines(proc: subprocess.CompletedProcess) -> list[dict]:
    """Every result object printed on stdout, one per workload run."""
    results = []
    for line in proc.stdout.splitlines():
        if line.startswith("{"):
            results.append(json.loads(line))
    return results


def result_line(proc: subprocess.CompletedProcess):
    lines = proc.stdout.strip().splitlines()
    try:
        return json.loads(lines[-1]) if lines else None
    except ValueError:
        return None


def copy_benchmark(dest: Path, with_source: bool) -> None:
    shutil.copy(ROOT / "BENCHMARK.json", dest / "BENCHMARK.json")
    shutil.copytree(HERE, dest / "perfbench", ignore=shutil.ignore_patterns(".work", "__pycache__"))
    if with_source:
        shutil.copytree(ROOT / "src", dest / "src", ignore=shutil.ignore_patterns("__pycache__"))


def check_metrics(spec: dict) -> list[str]:
    """One ``--workload all`` run per mode prints every named metric for every workload."""
    problems = []
    names = [w["name"] for w in spec["workloads"]]
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        wanted = {m["name"]: m["unit"] for m in spec[key]}
        proc = bench(ROOT, "all", trace)
        results = result_lines(proc)
        if proc.returncode != 0 or len(results) != len(names):
            problems.append(f"--workload all --trace {trace}: exit {proc.returncode}, "
                            f"{len(results)} results\n{proc.stderr[-800:]}")
            continue
        for workload, result in zip(names, results):
            where = f"{workload} --trace {trace}"
            if result["correct"] is not True:
                problems.append(f"{where}: correct is {result['correct']}")
            metrics = result["metrics"]
            if set(metrics) != set(wanted):
                problems.append(f"{where}: metrics differ from BENCHMARK.json: "
                                f"{sorted(set(metrics) ^ set(wanted))}")
            for name, unit in wanted.items():
                got = metrics.get(name, {})
                if got.get("unit") != unit or not isinstance(got.get("value"), (int, float)):
                    problems.append(f"{where}: {name} printed as {got}, expected unit {unit}")
            print(f"ok  {where}: {len(metrics)} metrics, {result['attempted']} jobs", flush=True)
    return problems


def check_broken_copy(scratch: Path) -> list[str]:
    root = scratch / "broken"
    root.mkdir()
    copy_benchmark(root, with_source=True)
    with (root / "src" / "orbitopes" / "characters.py").open("a") as fh:
        fh.write(WRONG_PRODUCT)
    proc = bench(root, "char_series", 0)
    result = result_line(proc)
    if proc.returncode == 0 or not result or result["correct"] is not False:
        return [f"a wrong series product went unnoticed: exit {proc.returncode}, result {result}"]
    print(f"ok  wrong series product: exit {proc.returncode}, {result['failed']} jobs failed", flush=True)
    return []


def check_bare_copy(scratch: Path) -> list[str]:
    root = scratch / "bare"
    root.mkdir()
    copy_benchmark(root, with_source=False)
    proc = bench(root, "char_series", 0)
    if proc.returncode == 0 or result_line(proc) is not None:
        return [f"a checkout without the library produced a result: exit {proc.returncode}"]
    print(f"ok  benchmark files alone: exit {proc.returncode}, no result", flush=True)
    return []


def check_oracles() -> list[str]:
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    from orbitopes.characters import series_mul
    from orbitopes.selftest import egf_counts

    import oracles
    import workloads

    problems = []
    counts = egf_counts(30)
    if any(oracles.species_count(n) != counts[n] for n in range(31)):
        problems.append("species_count disagrees with selftest.egf_counts")
    rng = workloads.random.Random(0)
    f = workloads.random_series(rng, "dense", 5, workloads.SMALL)
    g = workloads.random_series(rng, "few", 5, workloads.LARGE)
    table = oracles.coeff_table
    if oracles.cut_product(table(f), table(g), 5) != table(series_mul(f, g)):
        problems.append("cut_product disagrees with series_mul")
    if any(oracles.surjections(4, k) != [0, 1, 14, 36, 24][k] for k in range(5)):
        problems.append("surjections(4, k) is wrong")
    if not problems:
        print("ok  oracles agree with the library on small inputs", flush=True)
    return problems


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    scratch = HERE / ".work" / f"selfcheck-{os.getpid()}"
    scratch.mkdir(parents=True)
    try:
        problems = check_oracles() + check_metrics(spec) + check_broken_copy(scratch) + check_bare_copy(scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    for problem in problems:
        print(f"FAIL {problem}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())

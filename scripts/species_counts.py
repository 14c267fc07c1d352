#!/usr/bin/env python3
"""Tabulate labeled class counts next to the generating-function expansion.

Usage: python scripts/species_counts.py [--max-n N]

The exit code is 1 if any count differs from its coefficient.
"""

import argparse

from orbitopes.hopf_monoid import COUNT_MAX_N, count_structures
from orbitopes.selftest import egf_counts


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--max-n", type=int, default=10, dest="max_n")
    args = parser.parse_args()
    if not 0 <= args.max_n <= COUNT_MAX_N:
        parser.error(f"--max-n must lie in 0..{COUNT_MAX_N}, got {args.max_n}")

    expansion = egf_counts(args.max_n)
    print(f"{'n':>3}  {'count':>14}  {'egf coeff':>14}  match")
    mismatches = 0
    for n in range(args.max_n + 1):
        count = count_structures(n)
        mark = "ok" if count == expansion[n] else "MISMATCH"
        mismatches += mark != "ok"
        print(f"{n:>3}  {count:>14}  {expansion[n]:>14}  {mark}")
    if mismatches:
        raise SystemExit(1)


if __name__ == "__main__":
    main()

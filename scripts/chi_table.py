#!/usr/bin/env python3
"""Print the polynomial invariant of every composition class of a given weight.

Usage: python scripts/chi_table.py --n 4 [--check]

--n must lie in 0..12, the CLI's degree bound ``cli.MAX_DEGREE``: the
table has 2^(n-1) rows, all built before the first prints.

With --check, each row is recomputed by the ordered-set-partition brute
force and compared; the exit code is 1 if any row mismatches.  --check
takes --n only up to the recount bound ``geometry.BRUTE_FORCE_BOUND`` (8).
"""

import argparse

from orbitopes import geometry
from orbitopes.cli import MAX_DEGREE
from orbitopes.compositions import compositions_of
from orbitopes.invariants import chi, chi_bruteforce, to_monomial


def monomial_str(coeffs) -> str:
    terms = []
    for power, c in enumerate(coeffs):
        if not c:
            continue
        if power == 0:
            terms.append(f"{c}")
        elif power == 1:
            terms.append(f"{c}*t" if c != 1 else "t")
        else:
            terms.append(f"{c}*t^{power}" if c != 1 else f"t^{power}")
    return " + ".join(reversed(terms)) if terms else "0"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--n", type=int, required=True)
    parser.add_argument("--check", action="store_true")
    args = parser.parse_args()
    if args.n < 0:
        parser.error(f"--n must be nonnegative, got {args.n}")
    if args.n > MAX_DEGREE:
        parser.error(f"--n {args.n} exceeds the degree bound {MAX_DEGREE}")
    if args.check:
        bound = geometry.BRUTE_FORCE_BOUND
        if args.n > bound:
            parser.error(f"--n {args.n} exceeds the recount bound {bound} of --check")

    mismatches = 0
    for alpha in compositions_of(args.n):
        poly = chi(alpha)
        row = f"{str(tuple(alpha.parts)):>18}  {monomial_str(to_monomial(poly))}"
        if args.check:
            verdict = "ok" if chi_bruteforce(alpha) == poly else "MISMATCH"
            mismatches += verdict != "ok"
            row += f"  [{verdict}]"
        print(row)
    if mismatches:
        raise SystemExit(1)


if __name__ == "__main__":
    main()

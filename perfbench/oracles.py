"""Independent oracles for the benchmark's output checks.

Nothing here calls the library function whose output it judges: the
series product is recomputed from the cuts of each output composition,
surjection numbers and species counts come from closed forms, and the
geometric facts come from plain sorting and permutation.
"""

from __future__ import annotations

import hashlib
import json
from fractions import Fraction
from itertools import permutations
from math import comb, factorial

from orbitopes.hopf_algebra import GeneratorMultiset, HopfElement, TensorElement, coproduct_in_slot


def cuts(parts: tuple[int, ...]):
    """Every (left, right) pair whose ribbon product contains ``parts``, one per weight."""
    yield (), parts
    for j, part in enumerate(parts):
        for inside in range(1, part):
            yield parts[:j] + (inside,), (part - inside,) + parts[j + 1:]
        yield parts[:j + 1], parts[j + 1:]


def all_compositions(degree: int) -> list[tuple[int, ...]]:
    """Every composition of weight at most ``degree``, as part tuples."""
    out = [()]
    frontier = [()]
    for _ in range(degree):
        frontier = [c + (p,) for c in frontier for p in range(1, degree + 1) if sum(c) + p <= degree]
        out.extend(frontier)
    return out


def cut_product(f: dict, g: dict, degree: int) -> dict:
    """Coefficients of the truncated ribbon product, computed output-first.

    ``f`` and ``g`` map part tuples to rationals.  The pairs (beta, gamma)
    whose basis product contains alpha are exactly the cuts of alpha.
    """
    out = {}
    for alpha in all_compositions(degree):
        total = Fraction(0)
        for beta, gamma in cuts(alpha):
            fb = f.get(beta)
            if fb:
                gc = g.get(gamma)
                if gc:
                    total += fb * gc
        if total:
            out[alpha] = total
    return out


def coeff_table(series) -> dict:
    return {tuple(k.parts): v for k, v in series.coeffs.items()}


def surjections(n: int, k: int) -> int:
    """Number of maps from an n-set onto a k-set, by inclusion-exclusion."""
    return sum((-1) ** j * comb(k, j) * (k - j) ** n for j in range(k + 1))


def species_count(n: int) -> int:
    """Labeled classes on n labels from exp((e^t - 1)^2 / 2 + t), via Stirling numbers."""
    stirling = [[0] * (n + 1) for _ in range(n + 1)]
    stirling[0][0] = 1
    for m in range(1, n + 1):
        for k in range(1, m + 1):
            stirling[m][k] = k * stirling[m - 1][k] + stirling[m - 1][k - 1]
    total = 0
    for m in range(n + 1):
        inner = 0
        double_factorial = 1
        for j in range(m // 2 + 1):
            if j:
                double_factorial *= 2 * j - 1
            inner += double_factorial * stirling[m][2 * j]
        total += comb(n, m) * inner
    return total


def chi_shape_problems(parts: tuple[int, ...], coeffs: dict[int, Fraction]) -> list[str]:
    """Facts about chi(alpha) in the binomial basis that need no refinement sum.

    Only refinements with between l and n parts exist; the finest one gives
    the leading coefficient n!, alpha itself gives the l-part coefficient
    n!/prod(a_i!), and for a one-part alpha every coefficient is a
    surjection number.
    """
    n, length = sum(parts), len(parts)
    problems = []
    if any(k < length or k > n for k in coeffs):
        problems.append("support outside [l, n]")
    if coeffs.get(n) != factorial(n):
        problems.append("leading coefficient is not n!")
    multinomial = factorial(n)
    for a in parts:
        multinomial //= factorial(a)
    if coeffs.get(length) != multinomial:
        problems.append("l-part coefficient is not the multinomial")
    if length == 1 and any(coeffs.get(k, 0) != surjections(n, k) for k in range(1, n + 1)):
        problems.append("one-part coefficients are not surjection numbers")
    return problems


def run_lengths(values) -> tuple[int, ...]:
    """Multiplicities of the coordinates, read in decreasing order of value."""
    ordered = sorted(values, reverse=True)
    out = []
    for i, v in enumerate(ordered):
        if i and ordered[i - 1] == v:
            out[-1] += 1
        else:
            out.append(1)
    return tuple(out)


def max_face_brute(values: tuple, functional: tuple) -> set[tuple]:
    """Rearrangements of ``values`` maximizing the functional, by trying them all."""
    best = None
    winners = set()
    for arrangement in set(permutations(values)):
        score = sum(a * y for a, y in zip(arrangement, functional))
        if best is None or score > best:
            best, winners = score, {arrangement}
        elif score == best:
            winners.add(arrangement)
    return winners


def takeuchi_antipode(x: HopfElement) -> HopfElement:
    """Antipode from Takeuchi's formula, using only the coproduct and the product.

    S = sum over n >= 0 of (counit - id)^{*n}: the n-fold coproduct, keeping
    the terms with every slot of positive degree, multiplied back with sign
    (-1)^n.  The sum stops because each slot takes at least one unit of degree.
    """
    empty = GeneratorMultiset()
    out = {empty: x.coeffs.get(empty, Fraction(0))}
    t = TensorElement({(gm,): v for gm, v in x.coeffs.items() if gm.degree}, 1)
    sign = -1
    while t.coeffs:
        for key, v in t.coeffs.items():
            merged = GeneratorMultiset(a for gm in key for a in gm)
            out[merged] = out.get(merged, Fraction(0)) + sign * v
        split = coproduct_in_slot(t, t.arity - 1)
        t = TensorElement({k: v for k, v in split.coeffs.items() if all(gm.degree for gm in k)}, split.arity)
        sign = -sign
    return HopfElement(out)


def digest(value) -> str:
    """Stable fingerprint of an output, for comparing repetitions of one run."""
    text = json.dumps(value, sort_keys=True, default=str)
    return hashlib.sha1(text.encode()).hexdigest()[:16]

"""The point-counting character and its polynomial invariant.

``chi`` expands the invariant of a composition class in the binomial
basis in closed form: refining a part a into j pieces contributes, summed
over the refinements, the surjection number j! S(a, j), so the
coefficients are the multinomial of the class times the convolution of
one surjection row per part.  ``chi_bruteforce`` recomputes it from first
principles by counting the ordered set partitions of the labeled class
whose iterated splits land entirely on points.  It splits off every
nonempty first block with ``delta``, drops a first block whose factor is
not a product of points, and recounts the rest the same way.  The count
of what is left depends only on the multiset of its block compositions,
so each such shape is counted once per call: a single class of weight n
costs 2^(n+1) - n - 2 splits.  The two must agree, and the test suite
holds them to that.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from math import factorial
from operator import index
from typing import Mapping

from .compositions import Composition, multinomial, stirling_row
from .hopf_monoid import OrbitClassElement, class_of, delta
from .linear import Linear, as_fraction, numerators

# largest composition weight ``chi`` accepts; its cost and output grow as weight^2
CHI_MAX_WEIGHT = 200


class BinomialPolynomial(Linear):
    """Polynomial in t stored by its coefficients on binom(t, k)."""

    __slots__ = ()

    def __init__(self, coeffs: Mapping[int, Fraction] = ()):
        try:
            coeffs = {index(k): as_fraction(v) for k, v in dict(coeffs).items()}
        except TypeError:
            raise ValueError(f"binomial-basis terms must map integers to rationals, got {coeffs!r}") from None
        if any(k < 0 for k in coeffs):
            raise ValueError("binomial-basis indices must be nonnegative")
        self.coeffs = {k: v for k, v in coeffs.items() if v}

    @property
    def degree(self) -> int:
        return max(self.coeffs, default=0)

    def __hash__(self) -> int:
        return hash(frozenset(self.coeffs.items()))

    def __repr__(self) -> str:
        if not self.coeffs:
            return "0"
        return " + ".join(f"{v}*C(t,{k})" for k, v in sorted(self.coeffs.items()))

    def to_json(self, monomial: bool = False) -> dict:
        out = {"binomial": {str(k): str(v) for k, v in sorted(self.coeffs.items())}}
        if monomial:
            out["monomial"] = [str(c) for c in to_monomial(self)]
        return out


def to_monomial(p: BinomialPolynomial) -> list[Fraction]:
    """Coefficients on 1, t, t^2, ... obtained by expanding each binom(t, k).

    One pass over k keeps the integer falling factorial t(t-1)...(t-k+1) =
    k! binom(t, k) and multiplies it by (t - k) for the next k.  The sum is
    taken over one common denominator, so the inner loop is integer work.
    """
    denominator, scaled = numerators({k: c / factorial(k) for k, c in p.coeffs.items()})
    out = [0] * (p.degree + 1)
    falling = [1]
    for k in range(p.degree + 1):
        if k:
            falling = [0] + falling
            for j in range(k):
                falling[j] -= (k - 1) * falling[j + 1]
        scale = scaled.get(k)
        if scale:
            for j, fj in enumerate(falling):
                out[j] += scale * fj
    # the top coefficient is c_d / d!, never 0, so nothing needs trimming
    return [Fraction(v, denominator) for v in out]


def chi(alpha: Composition) -> BinomialPolynomial:
    """Sum of multinomial(gamma) * binom(t, parts(gamma)) over the refinements gamma.

    Closed form: multinomial(alpha) times the convolution of the parts'
    surjection rows j! S(a, j), read off ``compositions.stirling_row`` and
    indexed by the total number of pieces.
    """
    n = alpha.weight
    if n > CHI_MAX_WEIGHT:
        raise ValueError(f"chi bound exceeded: weight {n} > {CHI_MAX_WEIGHT}")
    coeffs = [1]
    for part in alpha:
        row = [factorial(j) * s for j, s in enumerate(stirling_row(part))]
        conv = [0] * (len(coeffs) + part)
        for i, c in enumerate(coeffs):
            if c:
                for j, r in enumerate(row):
                    conv[i + j] += c * r
        coeffs = conv
    scale = multinomial(alpha)
    return BinomialPolynomial({k: scale * c for k, c in enumerate(coeffs) if c})


def chi_bruteforce(alpha: Composition) -> BinomialPolynomial:
    """First-principles invariant of a composition class on labels 1..n."""
    labels = tuple(str(i) for i in range(1, alpha.weight + 1))
    return chi_bruteforce_element(class_of(alpha, labels))


def chi_bruteforce_element(x: OrbitClassElement) -> BinomialPolynomial:
    """Sum over ordered set partitions of the ground set, keeping all-point splits.

    Each ordered partition into k nonempty parts contributes the product
    of the point-counting character over the factors of the iterated
    split, as the coefficient of binom(t, k).  The partitions are counted
    over their first block: every nonempty first block is split off with
    ``delta``, one whose factor is not a product of points starts no
    all-point partition, and each other one adds the counts of its tail,
    shifted by one block.  ``delta`` reads only the overlap size of each
    block and the point test only the compositions, so the counts of a
    tail depend only on its shape, the sorted block compositions, and
    each shape is counted once.
    """
    from .geometry import _check_bound  # only the recount needs geometry's bound

    _check_bound(len(x.ground))
    memo: dict[tuple[Composition, ...], list[int]] = {}

    def counts(rest: OrbitClassElement) -> list[int]:
        # counts(rest)[k]: all-point ordered partitions of rest into k blocks
        if not rest.ground:
            return [1]
        shape = tuple(sorted(comp for _, comp in rest.blocks))
        if shape not in memo:
            row = [0] * (len(rest.ground) + 1)
            labels = sorted(rest.ground)
            for size in range(1, len(labels) + 1):
                for part in combinations(labels, size):
                    factor, tail = delta(rest, part)
                    if not any(len(block) > 1 for block, _ in factor.blocks):
                        for k, c in enumerate(counts(tail)):
                            row[k + 1] += c
            memo[shape] = row
        return memo[shape]

    return BinomialPolynomial(dict(enumerate(counts(x))))

"""The point-counting character and its polynomial invariant.

``chi`` expands the invariant of a composition class in the binomial
basis via the refinement sum; ``chi_bruteforce`` recomputes it from first
principles by splitting the labeled class along every ordered set
partition and reading off which splits land entirely on points.  The two
must agree, and the test suite holds them to that.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb
from typing import Iterable, Mapping

from .compositions import Composition, multinomial, refinements
from .enumeration import ordered_set_partitions
from .geometry import brute_force_bound
from .hopf_monoid import OrbitClassElement, class_of, delta

CHI_BOUND = 7


class BinomialPolynomial:
    """Polynomial in t stored by its coefficients on binom(t, k)."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Mapping[int, Fraction] = ()):
        coeffs = {int(k): Fraction(v) for k, v in dict(coeffs).items()}
        if any(k < 0 for k in coeffs):
            raise ValueError("binomial-basis indices must be nonnegative")
        self.coeffs = {k: v for k, v in coeffs.items() if v}

    @property
    def degree(self) -> int:
        return max(self.coeffs, default=0)

    def __eq__(self, other) -> bool:
        return isinstance(other, BinomialPolynomial) and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(frozenset(self.coeffs.items()))

    def __add__(self, other: "BinomialPolynomial") -> "BinomialPolynomial":
        out = dict(self.coeffs)
        for k, v in other.coeffs.items():
            out[k] = out.get(k, Fraction(0)) + v
        return BinomialPolynomial(out)

    def __rmul__(self, scalar) -> "BinomialPolynomial":
        scalar = Fraction(scalar)
        return BinomialPolynomial({k: scalar * v for k, v in self.coeffs.items()})

    def __mul__(self, other: "BinomialPolynomial") -> "BinomialPolynomial":
        """Product, carried out in the monomial basis and converted back."""
        a = to_monomial(self)
        b = to_monomial(other)
        prod = [Fraction(0)] * (len(a) + len(b) - 1)
        for i, ai in enumerate(a):
            for j, bj in enumerate(b):
                prod[i + j] += ai * bj
        return from_monomial(prod)

    def evaluate(self, t) -> Fraction:
        """Exact value at t, using falling factorials for binom(t, k)."""
        t = Fraction(t)
        total = Fraction(0)
        for k, c in self.coeffs.items():
            term = Fraction(1)
            for i in range(k):
                term = term * (t - i) / (i + 1)
            total += c * term
        return total

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
    """Coefficients on 1, t, t^2, ... obtained by expanding each binom(t, k)."""
    deg = p.degree
    out = [Fraction(0)] * (deg + 1)
    for k, c in p.coeffs.items():
        # binom(t, k) = (1/k!) * t(t-1)...(t-k+1); expand the falling factorial
        poly = [Fraction(1)]
        for i in range(k):
            poly = [Fraction(0)] + poly
            for j in range(len(poly) - 1):
                poly[j] -= i * poly[j + 1]
        denom = 1
        for i in range(1, k + 1):
            denom *= i
        for j, cj in enumerate(poly):
            out[j] += c * cj / denom
    while len(out) > 1 and out[-1] == 0:
        out.pop()
    return out


def from_monomial(coeffs: Iterable[Fraction]) -> BinomialPolynomial:
    """Inverse basis change via forward differences at 0, 1, 2, ..."""
    coeffs = [Fraction(c) for c in coeffs]

    def value_at(t: int) -> Fraction:
        acc = Fraction(0)
        for c in reversed(coeffs):
            acc = acc * t + c
        return acc

    deg = len(coeffs) - 1
    out = {}
    for k in range(deg + 1):
        ck = sum((-1) ** (k - j) * comb(k, j) * value_at(j) for j in range(k + 1))
        if ck:
            out[k] = ck
    return BinomialPolynomial(out)


def basic_character(alpha: Composition) -> Fraction:
    """1 on points (at most one part, including the empty composition), else 0."""
    return Fraction(1) if len(alpha) <= 1 else Fraction(0)


def chi(alpha: Composition) -> BinomialPolynomial:
    """Refinement-sum form: sum of multinomial(gamma) * binom(t, parts(gamma))."""
    n = alpha.weight
    out: dict[int, Fraction] = {}
    for gamma in refinements(alpha):
        k = len(gamma)
        out[k] = out.get(k, Fraction(0)) + multinomial(n, gamma)
    return BinomialPolynomial(out)


def chi_element(x: OrbitClassElement) -> BinomialPolynomial:
    """Invariant of a product of classes: product of the blockwise invariants."""
    out = BinomialPolynomial({0: Fraction(1)})
    for _, comp in x.blocks:
        out = out * chi(comp)
    return out


def chi_bruteforce(alpha: Composition, bound: int | None = None) -> BinomialPolynomial:
    """First-principles invariant of a composition class on labels 1..n."""
    labels = tuple(str(i) for i in range(1, alpha.weight + 1))
    return chi_bruteforce_element(class_of(alpha, labels), bound)


def chi_bruteforce_element(x: OrbitClassElement, bound: int | None = None) -> BinomialPolynomial:
    """Sum over ordered set partitions of the ground set, keeping all-point splits.

    Each ordered partition into k nonempty parts contributes the product
    of the point-counting character over the factors of the iterated
    split, as the coefficient of binom(t, k).  A factor kills its term as
    soon as it is not a product of points, so the fold short-circuits.
    """
    n = len(x.ground)
    limit = brute_force_bound(CHI_BOUND) if bound is None else bound
    if n > limit:
        raise ValueError(f"brute-force bound exceeded: ground set of size {n} > {limit}")
    out: dict[int, Fraction] = {}
    for parts in ordered_set_partitions(sorted(x.ground)):
        rest = x
        dead = False
        for part in parts:
            factor, rest = delta(rest, part)
            if any(len(labels) > 1 for labels, _ in factor.blocks):
                dead = True
                break
        if dead:
            continue
        k = len(parts)
        out[k] = out.get(k, Fraction(0)) + 1
    return BinomialPolynomial(out)

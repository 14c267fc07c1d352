"""Characters of orbit-polytope classes and their ribbon-series realization.

A character is a multiplicative rational functional; it is pinned down by
its values on the generating compositions (the composition (1) together
with all compositions of two or more parts), and its value on a one-part
composition (n) is forced to be the n-th power of its value on (1).  A
``Character`` and an ``NSymSeries`` carry one payload, a truncation degree and
rationals on compositions: one constructor check, JSON codec and row builder.

The map ``char_to_series`` realizes the character group inside
degree-truncated series over the ribbon basis of noncommutative symmetric
functions: coefficients c_beta are the character values divided by
|beta|!, and the image is exactly the series with c_empty = 1 and
n! c_(n) = c_(1)^n.  Convolution and inversion of characters go through
that realization, so the series product and the series inverse carry all
the work.  Both rest on one pair kernel: each pair of terms (beta, gamma)
adds into the concatenation and near-concatenation of R_beta R_gamma.

The kernel runs on integers.  Inside it a series is a list of rows, one
per weight n.  A row holds a positive denominator D_n and two dicts keyed
by the descent mask of each composition alpha of weight n, the int whose
bit j - 1 is set iff a part of alpha ends at j < n: one dict maps the mask
to an integer numerator, so the coefficient on alpha is numerator / D_n,
and the other maps it to alpha itself.  A pair (beta, gamma) with
|beta| = i lands on the near-concatenation's mask m_beta | m_gamma << i
and on the concatenation's, which also has bit i - 1 set when 0 < i < n;
so the kernel adds ints on int keys and builds each output composition
once.  A product row is summed over the lcm of the products of the input
rows' denominators, an inverse row over c0 times that lcm; ``Fraction``
appears only where a row is read from or written to a public
``NSymSeries`` or ``Character``.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial, gcd, lcm
from typing import Mapping

from .compositions import EMPTY, ONE, Composition, _piece, is_generator
from .linear import Linear, as_fraction, frac_from_str, numerators

# the most terms an inverse may hold, its weight-0 term included: unlike a product's, its rows
# are not limited by the input's pairs, and a dense one doubles with each weight, to 2^16 at degree 16
_INVERSE_MAX_TERMS = 2 ** 16

# JSON layout of each graded type: its array, the rational's key, and the nouns of its messages
_VALUES = ("values", "value", "character", "value")
_COEFFS = ("coeffs", "coeff", "series", "coefficient")


def _graded(degree, coeffs: Mapping, what: str) -> dict[Composition, Fraction]:
    """Nonzero coefficients keyed by compositions of weight <= degree; ``what`` names them in messages."""
    if isinstance(degree, bool) or not isinstance(degree, int) or degree < 0:
        raise ValueError(f"truncation degree must be a nonnegative integer, got {degree!r}")
    out = {}
    for key, value in dict(coeffs).items():
        alpha = Composition(key)
        if alpha.weight > degree:
            raise ValueError(f"{what} {alpha} exceeds truncation degree {degree}")
        value = as_fraction(value)
        if value:
            out[alpha] = value
    return out


def _to_json(degree: int, coeffs: dict[Composition, Fraction], layout: tuple) -> dict:
    field, key = layout[:2]
    ordered = sorted(coeffs.items(), key=lambda kv: (kv[0].weight, kv[0]))
    return {
        "degree": degree,
        field: [{"composition": list(alpha), key: str(v)} for alpha, v in ordered],
    }


def _from_json(data, layout: tuple, degree=None) -> tuple:
    """Degree (unless given) and coefficients of ``{"degree": N, field: [{"composition": c, key: q}]}``."""
    field, key, noun, term = layout
    if not isinstance(data, dict) or "degree" not in data or not isinstance(data.get(field), list):
        raise ValueError(f"a {noun} must be a JSON object with 'degree' and a '{field}' array")
    coeffs = {}
    for item in data[field]:
        if not isinstance(item, dict) or "composition" not in item or key not in item:
            raise ValueError(f"malformed {noun} {term} {item!r}")
        alpha = Composition.from_json(item["composition"])
        if alpha in coeffs:
            raise ValueError(f"composition {alpha} is given twice")
        coeffs[alpha] = frac_from_str(item[key])
    return data["degree"] if degree is None else degree, coeffs


class Character:
    """Rational character stored by its values on generator compositions.

    Missing generators default to 0.  Values on one-part compositions are
    derived, never stored, so inconsistent states cannot be represented.
    """

    def __init__(self, degree: int, values: Mapping[Composition, Fraction] = ()):
        # before _graded drops zeros: a zero on a non-generator is refused too
        values = {Composition(k): v for k, v in dict(values).items()}
        for alpha in values:
            if not is_generator(alpha):
                raise ValueError(f"{alpha} is not a generator; one-part values are derived")
        self.values = _graded(degree, values, "generator")
        self.degree = degree

    @classmethod
    def _of(cls, degree: int, values: dict[Composition, Fraction]) -> "Character":
        # trusted: nonzero Fractions on generators of weight at most ``degree``
        self = object.__new__(cls)
        self.degree = degree
        self.values = values
        return self

    @classmethod
    def identity(cls, degree: int) -> "Character":
        """The convolution unit: 1 on the empty class, 0 on every generator."""
        return cls(degree, {})

    @classmethod
    def basic(cls, degree: int) -> "Character":
        """1 on points (one-part classes), 0 elsewhere."""
        return cls(degree, {ONE: Fraction(1)})

    def on_composition(self, alpha: Composition) -> Fraction:
        """Value on the class of a composition (weight up to the truncation degree)."""
        alpha = Composition(alpha)
        if alpha.weight > self.degree:
            raise ValueError(f"|{alpha}| exceeds truncation degree {self.degree}")
        if not alpha:
            return Fraction(1)
        if len(alpha) == 1:
            return self.values.get(ONE, Fraction(0)) ** alpha.weight
        return self.values.get(alpha, Fraction(0))

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Character)
            and self.degree == other.degree
            and self.values == other.values
        )

    def __repr__(self) -> str:
        vals = {tuple(k): str(v) for k, v in sorted(self.values.items())}
        return f"Character(degree={self.degree}, values={vals})"

    def to_json(self) -> dict:
        return _to_json(self.degree, self.values, _VALUES)

    @classmethod
    def from_json(cls, data, degree: int | None = None) -> "Character":
        return cls(*_from_json(data, _VALUES, degree))


class NSymSeries(Linear):
    """Degree-truncated rational series over the ribbon basis."""

    __slots__ = ("degree",)
    _grade = "degree"
    _mismatch = "truncation degrees differ"

    def __init__(self, degree: int, coeffs: Mapping[Composition, Fraction] = ()):
        self.coeffs = _graded(degree, coeffs, "coefficient on")
        self.degree = degree

    @classmethod
    def unit(cls, degree: int) -> "NSymSeries":
        return cls(degree, {EMPTY: Fraction(1)})

    def coefficient(self, alpha: Composition) -> Fraction:
        return self.coeffs.get(Composition(alpha), Fraction(0))

    def __mul__(self, other: "NSymSeries") -> "NSymSeries":
        return series_mul(self, other)

    def __repr__(self) -> str:
        if not self.coeffs:
            return "NSymSeries(0)"
        terms = sorted(self.coeffs.items(), key=lambda kv: (kv[0].weight, kv[0]))
        body = " + ".join(f"{v}*R{tuple(k)}" for k, v in terms)
        return f"NSymSeries({body}; deg<={self.degree})"

    def to_json(self) -> dict:
        return _to_json(self.degree, self.coeffs, _COEFFS)

    @classmethod
    def from_json(cls, data) -> "NSymSeries":
        return cls(*_from_json(data, _COEFFS))


# (D_n, numerators, compositions), both dicts keyed by descent mask m:
# the coefficient on compositions[m] is numerators[m] / D_n
_Row = tuple[int, dict[int, int], dict[int, Composition]]


def _rows(coeffs: Mapping[Composition, Fraction], degree: int) -> list[_Row]:
    """The coefficients of weight up to ``degree``, one row per weight over its own lcm."""
    values: list[dict[int, Fraction]] = [{} for _ in range(degree + 1)]
    comps: list[dict[int, Composition]] = [{} for _ in range(degree + 1)]
    for alpha, value in coeffs.items():
        # the descent mask: bit j - 1 is set iff a part ends at j < n = |alpha|;
        # each part sets the bit of its start, and the shift drops the start 0
        mask = n = 0
        for part in alpha:
            mask |= 1 << n
            n += part
            if n > degree:  # stop shifting: a term far above the degree would need a huge mask
                break
        if n <= degree:
            values[n][mask >> 1] = value
            comps[n][mask >> 1] = alpha
    return [(*numerators(v), c) for v, c in zip(values, comps)]


def _series(rows: list[_Row]) -> NSymSeries:
    return NSymSeries._of({
        comps[mask]: Fraction(num, den) for den, row, comps in rows for mask, num in row.items()
    }, len(rows) - 1)


def _pair_row(left: list[_Row], right: list[_Row], n: int, first: int = 0) -> _Row:
    """Weight-n row of the sum of left[beta] * right[gamma] * R_beta R_gamma.

    Only left weights from ``first`` on count, and only where both rows are
    nonempty; the row is over the lcm of the products of their denominators.
    Each output composition is built once, by the first pair that reaches
    its mask; the row's compositions may name masks whose numerators cancelled.
    """
    active = [(i, left[i], right[n - i]) for i in range(first, n + 1)
              if left[i][1] and right[n - i][1]]
    den = lcm(*(dl * dr for _, (dl, _, _), (dr, _, _) in active))
    acc: dict[int, int] = {}
    comps: dict[int, Composition] = {}
    for i, (dl, nl, cl), (dr, nr, cr) in active:
        scale = den // (dl * dr)
        bit = 1 << (i - 1) if 0 < i < n else 0
        for mb, lb in nl.items():
            lb *= scale
            for mg, rg in nr.items():
                term = lb * rg
                key = mb | mg << i  # near-concatenation; the concatenation also sets ``bit``
                if bit:
                    if key in acc:
                        acc[key] += term
                    else:
                        acc[key] = term
                        beta, gamma = cl[mb], cr[mg]
                        comps[key] = _piece(beta[:-1] + (beta[-1] + gamma[0],) + gamma[1:])
                    key |= bit
                if key in acc:
                    acc[key] += term
                else:
                    acc[key] = term
                    comps[key] = _piece(cl[mb] + cr[mg])
    return den, {key: total for key, total in acc.items() if total}, comps


def _product_rows(f: list[_Row], g: list[_Row]) -> list[_Row]:
    return [_pair_row(f, g, n) for n in range(len(f))]


def _inverse_rows(f: list[_Row]) -> list[_Row]:
    # c0 = p / q with p > 0; weight n solves (f * inv)[alpha] = 0 from the weights below,
    # where the pairs with an empty left part contribute c0 * inv[alpha]
    q, row, _ = f[0]
    p = row[0]
    if p < 0:
        p, q = -p, -q
    inv = [(p, {0: q}, {0: EMPTY})]
    held = 1
    for n in range(1, len(f)):
        den, row, comps = _pair_row(f, inv, n, 1)
        held += len(row)
        if held > _INVERSE_MAX_TERMS:
            raise ValueError(f"inverse bound exceeded: {held} terms by weight {n} > {_INVERSE_MAX_TERMS}")
        den *= p
        row = {key: -q * num for key, num in row.items()}
        common = gcd(den, *row.values())
        inv.append((den // common, {key: num // common for key, num in row.items()}, comps))
    return inv


def series_mul(f: NSymSeries, g: NSymSeries) -> NSymSeries:
    """Bilinear extension of the basis product, truncated to the common degree.

    Computed input-first: each pair of terms adds into the one or two ribbons of its product.
    """
    if f.degree != g.degree:
        raise ValueError(NSymSeries._mismatch)
    return _series(_product_rows(_rows(f.coeffs, f.degree), _rows(g.coeffs, g.degree)))


def series_inverse(f: NSymSeries) -> NSymSeries:
    """Multiplicative inverse in increasing weight; needs a nonzero constant term and at most 2^16 terms."""
    if f.coefficient(EMPTY) == 0:
        raise ValueError("non-invertible series: constant coefficient is 0")
    return _series(_inverse_rows(_rows(f.coeffs, f.degree)))


def in_group_G(f: NSymSeries) -> bool:
    """Membership in the realized character group: c_empty = 1 and n! c_(n) = c_(1)^n."""
    if f.coefficient(EMPTY) != 1:
        return False
    c1 = f.coefficient(ONE)
    for n in range(2, f.degree + 1):
        if factorial(n) * f.coefficient(Composition((n,))) != c1 ** n:
            return False
    return True


def _char_rows(zeta: Character, degree: int) -> list[_Row]:
    """Rows of the realization: weight n over n! times the lcm of its value denominators."""
    realized = {EMPTY: Fraction(1), **zeta.values}
    c1 = zeta.values.get(ONE)
    if c1:
        for n in range(2, degree + 1):
            realized[Composition((n,))] = c1 ** n
    return [(den * factorial(n), nums, comps)
            for n, (den, nums, comps) in enumerate(_rows(realized, degree))]


def _character(rows: list[_Row]) -> Character:
    """The character whose generator values are |beta|! times the rows' coefficients."""
    values = {}
    for n, (den, row, comps) in enumerate(rows):
        fact = factorial(n)
        for key, num in row.items():
            beta = comps[key]
            if is_generator(beta):
                values[beta] = Fraction(fact * num, den)
    return Character._of(len(rows) - 1, values)


def char_to_series(zeta: Character) -> NSymSeries:
    """Realize a character as the series with c_beta = zeta(beta) / |beta|!."""
    return _series(_char_rows(zeta, zeta.degree))


def series_to_char(f: NSymSeries) -> Character:
    """Pull a group series back to the character with those generator values."""
    if not in_group_G(f):
        raise ValueError("series is not in the character group image")
    return _character(_rows(f.coeffs, f.degree))


def convolve(zeta: Character, psi: Character) -> Character:
    """Convolution: the realization of zeta * psi is the product of the realizations."""
    degree = min(zeta.degree, psi.degree)
    return _character(_product_rows(_char_rows(zeta, degree), _char_rows(psi, degree)))


def invert_character(zeta: Character) -> Character:
    """Convolution inverse: the realization of the inverse is the inverse series, bounded as there."""
    return _character(_inverse_rows(_char_rows(zeta, zeta.degree)))

"""Exact rationals: their JSON string form and the one sparse-vector core.

An element is a dict ``coeffs`` from basis keys to nonzero ``Fraction``s.
Kernels that sum many terms read such a dict once as integer numerators
over one denominator (``numerators``) and build each output ``Fraction``
once.  The Hopf algebra of compositions, its tensor powers, the ribbon series
and the binomial-basis invariant all take their sum, difference, scalar
multiple, equality and trusted constructor from ``Linear``; each keeps its
own validating constructor, product, JSON and ``repr``.

A rational travels in JSON as ``str`` of its ``Fraction``: "p/q" with q > 0
and gcd(p, q) = 1, an integer without the "/1".  ``frac_from_str`` reads
only that form, or a JSON integer.
"""

from __future__ import annotations

import re
from fractions import Fraction
from itertools import chain
from math import gcd, lcm

# ASCII digits only: the pattern is matched before any integer is built
_RATIONAL = re.compile(r"-?[0-9]+(/[0-9]+)?")


def frac_from_str(s) -> Fraction:
    if isinstance(s, bool) or not isinstance(s, (str, int)):
        raise ValueError(f"expected a rational string, got {s!r}")
    if isinstance(s, int):
        return Fraction(s)
    if not _RATIONAL.fullmatch(s):
        raise ValueError(f"malformed rational {s!r}")
    p, _, q = s.partition("/")
    try:
        p, q = int(p), int(q or 1)
    except ValueError:  # more digits than the interpreter converts
        digits = max(len(p.lstrip("-")), len(q))
        raise ValueError(
            f"rational with a part of {digits} digits, more than int() converts"
        ) from None
    if q == 0 or gcd(p, q) != 1:
        raise ValueError(f"malformed rational {s!r}: q must be positive and coprime to p")
    return Fraction(p, q)


def as_fraction(value) -> Fraction:
    """``value`` as a ``Fraction``: a Fraction is immutable, so it is returned itself, not copied."""
    return value if type(value) is Fraction else Fraction(value)


def combine(terms) -> dict:
    """Sum (key, coefficient) pairs into one dict, dropping zero coefficients."""
    out: dict = {}
    for key, value in terms:
        # one lookup and one store per term: multiset keys are costly to hash
        old = out.get(key)
        out[key] = value if old is None else old + value
    for key in [k for k, v in out.items() if not v]:
        del out[key]
    return out


def numerators(coeffs: dict) -> tuple[int, dict]:
    """Fractions over the lcm of their denominators: that denominator and the integer numerators."""
    den = lcm(*(v.denominator for v in coeffs.values()))
    return den, {key: v.numerator * (den // v.denominator) for key, v in coeffs.items()}


class Linear:
    """Base of the sparse rational vector types.

    A graded subclass names its grade attribute in ``_grade`` and the
    message for two different grades in ``_mismatch``; sums and equality
    hold only within one type and one grade.  Defining ``__eq__`` here
    leaves the subclasses unhashable unless they define ``__hash__``.
    """

    __slots__ = ("coeffs",)
    _grade: str | None = None
    _mismatch = ""

    @classmethod
    def _of(cls, coeffs: dict, grade=None):
        # trusted: nonzero Fractions on valid keys of the given grade
        self = object.__new__(cls)
        self.coeffs = coeffs
        if cls._grade:
            setattr(self, cls._grade, grade)
        return self

    def _grade_value(self):
        return getattr(self, self._grade) if self._grade else None

    def __add__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        grade = self._grade_value()
        if other._grade_value() != grade:
            raise ValueError(self._mismatch)
        return self._of(combine(chain(self.coeffs.items(), other.coeffs.items())), grade)

    def __sub__(self, other):
        return self + (-1) * other

    def __rmul__(self, scalar):
        scalar = as_fraction(scalar)
        coeffs = {k: scalar * v for k, v in self.coeffs.items()} if scalar else {}
        return self._of(coeffs, self._grade_value())

    def __eq__(self, other) -> bool:
        return (
            type(other) is type(self)
            and self._grade_value() == other._grade_value()
            and self.coeffs == other.coeffs
        )

"""JSON encoding conventions used by the library and the CLI.

Rationals travel as canonical strings ("p/q" with q > 0 and gcd(p, q) = 1;
integers drop the "/1").  Compositions are arrays of positive integers.
Reading a rational accepts only that form, or a JSON integer.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import gcd

from .compositions import Composition


def frac_to_str(x: Fraction) -> str:
    return str(Fraction(x))


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


def composition_from_json(data) -> Composition:
    if not isinstance(data, list) or any(not isinstance(p, int) or isinstance(p, bool) for p in data):
        raise ValueError(f"a composition must be a JSON array of integers, got {data!r}")
    return Composition(data)

"""Integer compositions and their splitting calculus.

A composition is a finite sequence of positive integers (possibly empty).
Compositions index the normal equivalence classes of orbit polytopes, and
the two joining operations ``concat`` and ``near_concat`` are the two ways
a composition can be cut in half at a given weight.

``Composition`` is a validated ``tuple`` subclass: it compares, orders and
hashes exactly as the tuple of its parts.  In JSON a composition is an
array of positive integers: ``Composition.from_json`` reads one, and
``list(alpha)`` writes one.
"""

from __future__ import annotations

import math
from functools import partial
from itertools import accumulate
from operator import index
from typing import Iterable, Sequence


class Composition(tuple):
    """Immutable tuple of positive integers; the empty composition is allowed.

    Equality, order and hashing are the tuple's: ``Composition((1, 2)) == (1, 2)``.
    """

    __slots__ = ()

    def __new__(cls, parts: Iterable[int] = ()):
        if type(parts) is cls:
            return parts  # already validated, and immutable: as tuple(t) is t
        try:
            self = tuple.__new__(cls, map(index, parts))
        except TypeError:
            raise ValueError(f"composition parts must be integers, got {parts!r}") from None
        if min(self, default=1) < 1:
            raise ValueError(f"composition parts must be positive, got {tuple(self)}")
        return self

    @property
    def parts(self) -> "Composition":
        return self

    @property
    def weight(self) -> int:
        return sum(self)

    def __repr__(self) -> str:
        return f"Composition{tuple(self)}"

    def __str__(self) -> str:
        # messages name a composition as the CLI reads it: [1, 2]
        return str(list(self))

    @classmethod
    def from_json(cls, data) -> "Composition":
        if not isinstance(data, list) or any(not isinstance(p, int) or isinstance(p, bool) for p in data):
            raise ValueError(f"a composition must be a JSON array of integers, got {data!r}")
        return cls(data)


EMPTY = Composition()
ONE = Composition((1,))

# trusted constructor for pieces cut from, or joined of, valid compositions: no re-validation
_piece = partial(tuple.__new__, Composition)


def _integer(value, what: str) -> int:
    # through operator.index, as Composition takes its parts: 1.0 and "1" are refused
    try:
        return index(value)
    except TypeError:
        raise ValueError(f"{what} must be an integer, got {value!r}") from None


def is_generator(alpha: Composition) -> bool:
    """(1) and every composition of two or more parts; (n) for n >= 2 is a power of (1)."""
    return len(alpha) >= 2 or alpha == (1,)


def concat(beta: Composition, gamma: Composition) -> Composition:
    """Join two compositions end to end."""
    return Composition(beta + gamma)


def near_concat(beta: Composition, gamma: Composition) -> Composition:
    """Join two nonempty compositions, merging the boundary parts into one."""
    if not beta or not gamma:
        raise ValueError("near-concatenation requires nonempty operands")
    return Composition(beta[:-1] + (beta[-1] + gamma[0],) + gamma[1:])


def _cut(alpha: Composition, ends: Iterable[int]) -> list[Composition]:
    """The pieces of ``alpha`` between the cut weights 0, ``ends`` (nondecreasing,
    within 0..|alpha|) and |alpha|, in one walk over its parts."""
    pieces, head, start = [], (), 0  # the next piece opens with head, then the parts from start
    j = acc = prev = 0  # acc: the weight of the parts before part j; prev: the last cut
    for end in ends:
        while j < len(alpha) and acc + alpha[j] <= end:
            acc += alpha[j]
            j += 1
        if start > j:  # the last cut and this one both lie inside part j
            pieces.append(_piece((end - prev,) if end > prev else ()))
        else:
            pieces.append(_piece(head + alpha[start:j] + ((end - acc,) if end > acc else ())))
        head, start = ((acc + alpha[j] - end,), j + 1) if end > acc else ((), j)
        prev = end
    pieces.append(_piece(head + alpha[start:]))
    return pieces


def restrict_contract(alpha: Composition, i: int) -> tuple[Composition, Composition]:
    """Cut ``alpha`` after total weight ``i`` into the unique (beta, gamma), beta of
    weight i, that concat (a cut between parts) or near_concat (a cut through a
    part) joins back into ``alpha``.

    Only the one cut is built, in O(len(alpha)) whatever the weight, so a
    single cut of a composition such as (10**9,) stays cheap.
    """
    i = _integer(i, "cut weight")
    if not 0 <= i <= alpha.weight:
        raise ValueError(f"cut weight {i} out of range for {alpha}")
    return tuple(_cut(alpha, (i,)))


def iterated_restrict(alpha: Composition, sizes: Sequence[int]) -> list[Composition]:
    """Cut ``alpha`` into consecutive pieces of the given weights, in one walk.

    Reassembling the pieces with concatenation (at cuts between parts) and
    near-concatenation (at cuts through a part) recovers ``alpha``.
    """
    sizes = [_integer(s, "piece size") for s in sizes]
    if any(s < 0 for s in sizes):
        raise ValueError("piece sizes must be nonnegative")
    if sum(sizes) != alpha.weight:
        raise ValueError(f"sizes {list(sizes)} do not sum to |{alpha}| = {alpha.weight}")
    return _cut(alpha, accumulate(sizes[:-1])) if sizes else []


def splits(alpha: Composition) -> tuple[tuple[Composition, Composition], ...]:
    """All cuts of ``alpha``: restrict_contract(alpha, i) for i = 0..|alpha|."""
    return tuple(tuple(_cut(alpha, (i,))) for i in range(alpha.weight + 1))


def compositions_of(n: int) -> tuple[Composition, ...]:
    """All 2^(n-1) compositions of n, in lexicographic order on part sequences."""
    n = _integer(n, "n")
    if n < 0:
        raise ValueError("n must be nonnegative")
    # rows[m]: the compositions of m, each a first part followed by a composition of the rest
    rows = [(EMPTY,)]
    for m in range(1, n + 1):
        rows.append(tuple(
            _piece((first,) + rest) for first in range(1, m + 1) for rest in rows[m - first]
        ))
    return rows[n]  # lexicographic by construction


def multinomial(n: int, gamma: Composition) -> int:
    """n! / (gamma_1! ... gamma_k!), exact."""
    n = _integer(n, "n")
    if gamma.weight != n:
        raise ValueError(f"{gamma} is not a composition of {n}")
    result = math.factorial(n)
    for part in gamma:
        result //= math.factorial(part)
    return result


def stirling_step(row: list[int]) -> list[int]:
    """S(m, k) for k = 0..m, from the row S(m - 1, k) for k = 0..m - 1; ``row`` is not changed."""
    # S(m, k) = k S(m - 1, k) + S(m - 1, k - 1)
    return [0] + [k * s + t for k, (s, t) in enumerate(zip(row[1:] + [0], row), start=1)]


def stirling_row(m: int) -> list[int]:
    """S(m, k) for k = 0..m: the set partitions of m labels into k blocks."""
    m = _integer(m, "m")
    if m < 0:
        raise ValueError("m must be nonnegative")
    row = [1]  # S(0, 0)
    for _ in range(m):
        row = stirling_step(row)
    return row

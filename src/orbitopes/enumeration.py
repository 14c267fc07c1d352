"""Enumeration helpers shared across the geometry and invariant layers."""

from __future__ import annotations

from itertools import combinations
from typing import Iterator, Sequence, TypeVar

T = TypeVar("T")


def distinct_permutations(values: Sequence[T]) -> Iterator[tuple[T, ...]]:
    """Yield each rearrangement of a multiset exactly once, in decreasing lexicographic order.

    Knuth's Algorithm L (TAOCP 7.2.1.2) run downwards: from the weakly
    decreasing arrangement, each step finds the rightmost j with
    a[j] > a[j + 1], swaps a[j] with the rightmost smaller entry after it
    and reverses the tail after j.  n!/prod(mult_i!) outputs, no
    recursion and no post-hoc deduplication.
    """
    a = sorted(values, reverse=True)
    last = len(a) - 1
    while True:
        yield tuple(a)
        j = last - 1
        while j >= 0 and a[j] <= a[j + 1]:
            j -= 1
        if j < 0:
            return
        l = last
        while a[l] >= a[j]:
            l -= 1
        a[j], a[l] = a[l], a[j]
        a[j + 1:] = a[:j:-1]


def subsets(items: Sequence[T]) -> Iterator[tuple[T, ...]]:
    """All subsets of ``items``, as tuples, by increasing size."""
    for k in range(len(items) + 1):
        yield from combinations(items, k)

"""Labeled orbit-polytope classes with merge and split operations.

An element over a finite label set is a partition of the labels into
blocks, each block carrying a composition of its size: the normal
equivalence class of a product of orbit polytopes.  Elements are kept in
canonical form, where a one-part composition (n) with n >= 2 never
appears on a block; such a factor is a point and is stored as n singleton
blocks carrying (1).  Equality of elements is then plain set comparison.

``mu`` merges two elements over disjoint label sets; ``delta`` splits an
element along a subset, cutting each block's composition at the size of
its overlap with the subset.
"""

from __future__ import annotations

from typing import Iterable

from .compositions import ONE, Composition, _integer, is_generator, restrict_contract, stirling_step

Block = tuple[frozenset, Composition]


class OrbitClassElement:
    """Canonical blocks-with-compositions structure; its label set ``ground`` is the blocks' union."""

    __slots__ = ("ground", "blocks")

    def __init__(self, blocks: Iterable[Block]):
        canonical = set()
        covered: set[str] = set()
        for labels, comp in blocks:
            labels = frozenset(labels)
            if not isinstance(comp, Composition):
                comp = Composition(comp)
            if comp.weight != len(labels):
                raise ValueError(f"composition {comp} does not fit block of size {len(labels)}")
            if covered & labels:
                raise ValueError("blocks must be disjoint")
            covered |= labels
            if comp and not is_generator(comp):
                # a one-part class is a point: decompose into singleton blocks
                canonical.update((frozenset([l]), ONE) for l in labels)
            elif labels:
                canonical.add((labels, comp))
        self.ground = frozenset(covered)
        self.blocks = frozenset(canonical)

    def __eq__(self, other) -> bool:
        return isinstance(other, OrbitClassElement) and self.blocks == other.blocks

    def __hash__(self) -> int:
        return hash(self.blocks)

    def __repr__(self) -> str:
        parts = sorted(self.blocks, key=lambda b: min(b[0]))
        inner = " * ".join(f"O{tuple(c)}@{{{','.join(sorted(b))}}}" for b, c in parts)
        return inner if inner else "O()@{}"


UNIT = OrbitClassElement(())


def class_of(alpha: Composition, ground: Iterable[str]) -> OrbitClassElement:
    """The class of orbit polytopes with composition ``alpha`` over ``ground``."""
    ground = frozenset(ground)
    if alpha.weight != len(ground):
        raise ValueError(f"|{alpha}| = {alpha.weight} does not match {len(ground)} labels")
    return OrbitClassElement([(ground, alpha)])


def mu(x: OrbitClassElement, y: OrbitClassElement) -> OrbitClassElement:
    """Merge two elements over disjoint label sets (the free commutative product)."""
    if x.ground & y.ground:
        raise ValueError(f"ground sets overlap: {sorted(x.ground & y.ground)}")
    return OrbitClassElement(x.blocks | y.blocks)


def delta(x: OrbitClassElement, S: Iterable[str]) -> tuple[OrbitClassElement, OrbitClassElement]:
    """Split ``x`` along the subset S of its ground set.

    Each block B cuts at weight |B & S|: the block's composition restricts
    to the overlap and contracts to the rest.  Restriction depends only on
    the overlap size, so no order on S is needed.
    """
    S = frozenset(S)
    if not S <= x.ground:
        raise ValueError(f"labels {sorted(S - x.ground)} not in ground set")
    left_blocks: list[Block] = []
    right_blocks: list[Block] = []
    for labels, comp in x.blocks:
        inside = labels & S
        left_part, right_part = restrict_contract(comp, len(inside))
        left_blocks.append((inside, left_part))
        right_blocks.append((labels - inside, right_part))
    return OrbitClassElement(left_blocks), OrbitClassElement(right_blocks)


# largest n ``count_structures`` accepts; the Stirling row costs about n^2 big-integer steps
COUNT_MAX_N = 1000

# (m, S(m, k) for k = 0..m) for the largest m = n + 1 read so far: at most COUNT_MAX_N + 2
# ints, so a process asking for increasing n pays O(n^2) in all, not per call.  The pair is
# replaced whole and its list never changed or handed out.
_row = (0, [1])


def count_structures(n: int) -> int:
    """Number of elements over n labels: set partitions weighted by per-block class counts.

    Closed form: n! [t^n] exp((e^t - 1)^2 / 2 + t) = sum over j of (2j - 1)!! S(n + 1, 2j + 1),
    because e^t (e^t - 1)^m / m! generates the Stirling numbers S(n + 1, m + 1) and
    exp(u^2 / 2) = sum over j of (2j - 1)!! u^(2j) / (2j)!.  The numbers S(n + 1, k) are
    stepped by ``compositions.stirling_step`` from the longest row kept so far when it is
    shorter, and from S(0, 0) when it is longer.
    """
    global _row
    n = _integer(n, "n")
    if n < 0:
        raise ValueError("n must be nonnegative")
    if n > COUNT_MAX_N:
        raise ValueError(f"count bound exceeded: n = {n} > {COUNT_MAX_N}")
    kept = _row  # one read: a concurrent caller may replace the pair meanwhile
    m, row = kept if kept[0] <= n + 1 else (0, [1])
    for _ in range(m, n + 1):
        row = stirling_step(row)
    if kept[0] < n + 1:
        _row = (n + 1, row)
    total, double_factorial = 0, 1
    for j in range(len(row) // 2):
        total += double_factorial * row[2 * j + 1]
        double_factorial *= 2 * j + 1
    return total

"""Exact geometry of orbit polytopes over rational coordinates.

An orbit polytope is the convex hull of all coordinate permutations of a
point.  Everything here works with ``fractions.Fraction`` so that equality
of coordinates (which drives run-length grouping and vertex enumeration)
is exact.  The ground set carries a fixed linear order on its labels; the
chamber of points weakly decreasing along that order is the reference
chamber, and the composition of a point reads off the run lengths of its
sorted coordinate multiset.

``GroundSet`` is a validated ``tuple`` subclass of labels: it compares,
orders and hashes as a tuple.

Brute-force operations (vertex enumeration, base polytope verification,
the chamber census, the labels a maximal face permutes, and the invariant
recount in ``invariants``) refuse a ground set larger than the one fixed
bound ``BRUTE_FORCE_BOUND``, read at call time.  The half-space check
multiplies the coordinates by the lcm of their denominators once and
maximizes every subset sum over all vertices on integers, by dynamic
programming over the sub-multisets of coordinates still to be placed (at
most 3^n table entries, not one scan per vertex).  The vertex walks
(``orbit_vertices``, ``max_face_vertices``) are one walk on the integer
ranks of the coordinates, ``_block_ranks``: the face of O(p) maximizing a
functional y is the product of the orbits of the level sets of y, filled
with the coordinates in decreasing order, and the whole orbit is the face
of one level set, the ground set.  The chamber census is built vertex
first: every vertex's orders come from one list of within-tie
permutations shared by all vertices.  A ``Point`` caches its hash; the
vertex walks compute it from one hash per distinct coordinate value, so
no ``Fraction`` is hashed per coordinate.  Every result is still built
from, and returned as, ``Fraction`` coordinates.  The enumeration helpers
``distinct_permutations`` and ``subsets`` live here too.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from itertools import accumulate, chain, combinations, groupby, permutations, product, starmap
from operator import itemgetter
from typing import Iterable, Iterator, Mapping, Sequence, TypeVar

from .compositions import Composition, multinomial
from .linear import as_fraction, frac_from_str, numerators

# largest ground set, or set of tied labels, that the brute-force work accepts
BRUTE_FORCE_BOUND = 8
T = TypeVar("T")


def _check_bound(n: int):
    if n > BRUTE_FORCE_BOUND:
        raise ValueError(f"brute-force bound exceeded: ground set of size {n} > {BRUTE_FORCE_BOUND}")


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


class GroundSet(tuple):
    """Finite ordered tuple of distinct string labels; the order is the reference order."""

    __slots__ = ()

    def __new__(cls, labels: Iterable[str]):
        self = tuple.__new__(cls, map(str, labels))
        if len(set(self)) != len(self):
            raise ValueError(f"ground-set labels must be distinct: {tuple(self)}")
        return self

    @property
    def labels(self) -> "GroundSet":
        return self

    def restricted(self, keep: Iterable[str]) -> "GroundSet":
        """Sub-ground-set of the given labels, preserving the reference order."""
        keep = set(keep)
        missing = keep - set(self)
        if missing:
            raise ValueError(f"labels {sorted(missing)} not in ground set")
        return GroundSet(l for l in self if l in keep)


def standard_ground(n: int) -> GroundSet:
    """Ground set with labels "1".."n" in natural order."""
    return GroundSet(tuple(str(i) for i in range(1, n + 1)))


class Point:
    """Rational point indexed by a ground set's labels.

    A point hashes as ``hash((ground, values))``, computed the first time it
    is asked for and cached.  The vertex walks pass it in precomputed from
    one hash per distinct coordinate value, since ``Fraction.__hash__`` is
    Python code with a modular inverse per call.
    """

    __slots__ = ("ground", "values", "_hash")

    def __init__(self, ground: GroundSet, coords: Mapping[str, Fraction]):
        if set(coords) != set(ground):
            raise ValueError("coordinates must be given for exactly the ground-set labels")
        self.ground = ground
        self.values = tuple(as_fraction(coords[l]) for l in ground)
        self._hash = None

    @classmethod
    def from_values(cls, ground: GroundSet, values: Iterable[Fraction]) -> "Point":
        values = tuple(map(as_fraction, values))
        if len(values) != len(ground):
            raise ValueError("coordinates must be given for exactly the ground-set labels")
        return cls._of(ground, values)

    @classmethod
    def _of(cls, ground: GroundSet, values: tuple[Fraction, ...], hash_: int | None = None) -> "Point":
        # trusted: ``values`` is a tuple of Fractions already in ground order,
        # ``hash_`` None or equal to hash((ground, values))
        self = object.__new__(cls)
        self.ground = ground
        self.values = values
        self._hash = hash_
        return self

    def __getitem__(self, label: str) -> Fraction:
        try:
            return self.values[self.ground.index(label)]
        except ValueError:
            raise KeyError(label) from None

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Point)
            and self.ground == other.ground
            and self.values == other.values
        )

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash((self.ground, self.values))
        return self._hash

    def __reduce__(self):
        # the cached hash depends on the process's string hash seed: never pickle it
        return Point.from_values, (self.ground, self.values)

    def __repr__(self) -> str:
        inner = ", ".join(f"{l}={v}" for l, v in zip(self.ground, self.values))
        return f"Point({inner})"

    def to_json(self) -> dict[str, str]:
        return {l: str(v) for l, v in zip(self.ground, self.values)}

    @classmethod
    def from_json(cls, data) -> "Point":
        if not isinstance(data, dict):
            raise ValueError(f"expected a JSON object of label -> rational, got {data!r}")
        coords = {str(k): frac_from_str(v) for k, v in data.items()}
        return cls(GroundSet(data), coords)


def sorted_values(p: Point) -> tuple[Fraction, ...]:
    return tuple(sorted(p.values, reverse=True))


def composition_of_point(p: Point) -> Composition:
    """Run lengths of the coordinate multiset sorted in decreasing order."""
    return Composition(len(list(run)) for _, run in groupby(sorted_values(p)))


def _ranks(p: Point) -> tuple[list[Fraction], list[int]]:
    """The distinct coordinates of p, decreasing, and the rank of each sorted coordinate.

    A coordinate's rank is its index among the distinct ones, so equal
    coordinates share a rank and the ranks come in increasing order.
    """
    values = sorted_values(p)
    distinct = [value for value, _ in groupby(values)]
    ranks = [rank for rank, (_, run) in enumerate(groupby(values)) for _ in run]
    return distinct, ranks


def _points_of_ranks(
    ground: GroundSet, distinct: list[Fraction], arrangements: Iterable[tuple[int, ...]]
) -> Iterator[Point]:
    """The ``Point`` of each tuple of ranks into ``distinct``, its hash precomputed.

    A tuple's hash depends only on its items' hashes, and hash(h) == h for
    the hash h of any number, so the tuple of the ranks' value hashes hashes
    like the values themselves: each Point's hash equals hash((ground, values))
    while ``Fraction.__hash__`` runs once per distinct value, not per coordinate.
    """
    value_of = distinct.__getitem__
    hash_of = list(map(hash, distinct)).__getitem__
    of = Point._of
    for ranks in arrangements:
        yield of(ground, tuple(map(value_of, ranks)), hash((ground, tuple(map(hash_of, ranks)))))


def _extend(heads: list[tuple[int, ...]], tails: Iterable[tuple[int, ...]]) -> Iterator[tuple[int, ...]]:
    # the tails stream: the last block's arrangements are never all held at once
    return (head + tail for tail in tails for head in heads)


def _block_ranks(p: Point, blocks: Sequence[Sequence[str]]) -> tuple[list[Fraction], Iterable[tuple[int, ...]]]:
    """The distinct coordinates of p, decreasing, and as ranks each vertex that fills the blocks in turn.

    The blocks partition the ground set.  Each partial rank tuple is extended by every distinct
    arrangement of the next block's slice of the ranks, the largest coordinates going to the first
    block; the tuples are regathered into ground order only when the blocks list it otherwise.
    """
    distinct, ranks = _ranks(p)
    walk: Iterable[tuple[int, ...]] = [()]
    start = 0
    for block in blocks:
        tails = distinct_permutations(ranks[start:start + len(block)])
        # until a rank is placed the walk is the one empty tuple, and the tails are the walk
        walk = _extend(list(walk), tails) if start else tails
        start += len(block)
    order = [label for block in blocks for label in block]
    if order != list(p.ground):
        where = {label: i for i, label in enumerate(order)}
        # the orders differ only for two or more labels, where itemgetter returns a tuple
        walk = map(itemgetter(*(where[label] for label in p.ground)), walk)
    return distinct, walk


def _orbit_ranks(p: Point) -> tuple[list[Fraction], Iterable[tuple[int, ...]]]:
    """The distinct coordinates of p, decreasing, and each vertex as ranks into them in ground order."""
    _check_bound(len(p.ground))
    return _block_ranks(p, (p.ground,))


def orbit_vertices(p: Point) -> set[Point]:
    """All distinct coordinate rearrangements of p; these are the orbit polytope's vertices.

    The orbit is the walk of one block, the whole ground set, on the
    integer ranks of the coordinates; each vertex is mapped back to its
    ``Fraction`` values.
    """
    return set(_points_of_ranks(p.ground, *_orbit_ranks(p)))


def _max_face_ranks(
    p: Point, y: Mapping[str, Fraction] | Point
) -> tuple[list[Fraction], Iterable[tuple[int, ...]]]:
    """The distinct coordinates of p, decreasing, and each maximizer of y as ranks into them."""
    if isinstance(y, Point):
        y = dict(zip(y.ground, y.values))
    if set(y) != set(p.ground):
        raise ValueError("functional must be defined on exactly the ground-set labels")
    # the level sets of y by decreasing value, each in ground order: the sort is stable,
    # and it groups equal values without hashing a Fraction
    value = {label: as_fraction(y[label]) for label in p.ground}
    ordered = sorted(p.ground, key=value.__getitem__, reverse=True)
    levels = [tuple(run) for _, run in groupby(ordered, key=value.__getitem__)]
    # only labels sharing a level set with others are permuted, as in orbit_vertices
    tied = sum(len(level) for level in levels if len(level) > 1)
    if tied > BRUTE_FORCE_BOUND:
        raise ValueError(
            f"brute-force bound exceeded: {tied} labels in tied level sets > {BRUTE_FORCE_BOUND}"
        )
    return _block_ranks(p, levels)


def max_face_vertices(p: Point, y: Mapping[str, Fraction] | Point) -> set[Point]:
    """Vertices of the orbit polytope of p on which the functional y is maximal.

    y maps each label to a rational; a ``Point`` is read as its label -> value map.

    The maximizers place the largest |S_1| coordinates in the top level set
    S_1 of y, the next largest in S_2, and so on, in every arrangement
    within each level set; they are walked on the coordinates' ranks.
    """
    return set(_points_of_ranks(p.ground, *_max_face_ranks(p, y)))


def _max_subset_sums(scaled: list[int]) -> list[int]:
    """best[m] = max, over the distinct arrangements x of ``scaled``, of sum(x_i for bit i of m).

    Dynamic programming over the sub-multisets R still to place, R on the
    last |R| positions: R's table has one entry per subset of those
    positions, bit 0 for the first.  It is built from the table of R less
    one copy of each distinct value v, v placed first: an even mask takes
    the child's entry for its other bits, an odd mask that entry plus v,
    each maximized over v.  Each table is built once, so the work is
    sum over R of 2^|R| <= 3^n entries, each from at most k children for
    k distinct values.
    """
    counts = Counter(scaled)
    values = list(counts)
    memo: dict[tuple[int, ...], list[int]] = {}

    def table(left: tuple[int, ...]) -> list[int]:
        # left[j]: copies of values[j] still to place
        found = memo.get(left)
        if found is not None:
            return found
        skip = take = None
        for j, v in enumerate(values):
            if left[j]:
                child = table(left[:j] + (left[j] - 1,) + left[j + 1:])
                placed = [s + v for s in child]
                skip = child if skip is None else list(map(max, skip, child))
                take = placed if take is None else list(map(max, take, placed))
        if skip is None:
            found = [0]
        else:
            found = [0] * (2 * len(skip))
            found[0::2] = skip
            found[1::2] = take
        memo[left] = found
        return found

    return table(tuple(counts.values()))


def check_base_polytope(p: Point) -> bool:
    """Verify the half-space description against the vertex description.

    Here z(S), the sum of the |S| largest coordinates of p, is the
    submodular function of the orbit polytope, read off one prefix-sum
    table.  Every orbit vertex must satisfy sum(x) = z(I) and sum over
    S <= z(S) for each proper nonempty S, and each such inequality must be
    attained with equality by some vertex.  The coordinates are scaled
    once to integers by ``linear.numerators``, which preserves
    every comparison.  The maximum of each subset sum over all vertices
    comes from ``_max_subset_sums``, an exhaustive and exact maximization
    that never uses the closed form z(S) it is compared with; subsets are
    bitmasks over the label positions, bit i standing for position i.
    """
    n = len(p.ground)
    _check_bound(n)
    values = sorted_values(p)
    scaled = list(numerators(dict(enumerate(values)))[1].values())
    prefix = list(accumulate(scaled, initial=0))
    best = _max_subset_sums(scaled)
    # max over vertices must meet z(S) exactly: <= is validity, == is tightness;
    # the full mask is sum(x) = z(I), the empty one 0 = z(emptyset)
    return all(best[m] == prefix[m.bit_count()] for m in range(1 << n))


def chamber_census(p: Point) -> dict[tuple[str, ...], Point]:
    """For each total order on the labels, the unique orbit vertex weakly sorted along it.

    An order (l_1, ..., l_n) stands for the closed chamber x_{l_1} >= ... >= x_{l_n}.
    The census is built vertex first.  A vertex's orders list its labels by
    position in the decreasing sort of its coordinates, each tie block in any
    order: they are the images of one position -> label map under the same
    prod(m_i!) within-block permutations of the positions, built once per
    call as ``itemgetter``s.  One pass of ``permutations`` over the ranks in
    lockstep with ``permutations`` over the positions gives every vertex's
    rank tuple (in ground order) and a position for each of its labels.
    The orders on one vertex share one ``Point``.
    """
    n = len(p.ground)
    _check_bound(n)
    if n <= 1:  # itemgetter of one index returns a bare label, not a tuple
        return {tuple(p.ground): Point._of(p.ground, p.values)}
    distinct, ranks = _ranks(p)
    # the positions that hold each rank, in every order
    blocks = [
        permutations(i for i, r in enumerate(ranks) if r == rank) for rank in range(len(distinct))
    ]
    reorders = list(starmap(itemgetter, map(tuple, map(chain.from_iterable, product(*blocks)))))
    # sigma pairs the rank tuple ranks o sigma with sigma, a valid position for every label
    positions = dict(zip(permutations(ranks), permutations(range(n))))
    value_of = distinct.__getitem__
    census = {}
    for key, position in positions.items():
        vertex = Point._of(p.ground, tuple(map(value_of, key)))
        label_at = dict(zip(position, p.ground))
        for reorder in reorders:
            census[reorder(label_at)] = vertex
    return census


def normally_equivalent(p: Point, q: Point) -> bool:
    """Same normal fan, decided combinatorially: equal compositions."""
    if len(p.ground) != len(q.ground):
        raise ValueError("points must have ground sets of equal size")
    return composition_of_point(p) == composition_of_point(q)


def face_decomposition(p: Point, S: Iterable[str]) -> tuple[Point, Point]:
    """Split p along S: the face maximizing the indicator of S is a product.

    Returns (q, q') where q lives on S and carries the |S| largest
    coordinates of p, and q' lives on the complement with the rest.
    """
    S = set(S)
    values = sorted_values(p)
    ground_s = p.ground.restricted(S)
    ground_t = p.ground.restricted(set(p.ground) - S)
    q = Point.from_values(ground_s, values[:len(S)])
    q_prime = Point.from_values(ground_t, values[len(S):])
    return q, q_prime


def representative_point(alpha: Composition, ground: GroundSet) -> Point:
    """A point with the given composition: values n-1, n-2, ... repeated along the parts."""
    n = alpha.weight
    if n != len(ground):
        raise ValueError(f"|{alpha}| = {n} does not match ground set of size {len(ground)}")
    values = []
    for j, part in enumerate(alpha):
        values.extend([Fraction(n - 1 - j)] * part)
    return Point.from_values(ground, values)


def vertex_count(p: Point) -> int:
    """n! / prod(m_i!) for the multiplicities m_i of the coordinate multiset."""
    return multinomial(len(p.ground), composition_of_point(p))

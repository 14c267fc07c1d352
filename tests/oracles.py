"""Independent oracles backing the frozen expected values.

Nothing here reuses the code path it checks: splits are found by
exhaustive pair search, iterated cuts one single cut at a time, each off
the remainder of the last, orbit vertices from every distinct rearrangement
of the coordinates, maximal faces from argmax over those vertices,
polynomial identities from pointwise evaluation, the series product from
every pair of coefficients or from the cuts of every output composition,
convolution values from the binomial cut formula on the characters
themselves, the antipode from the degree recursion on whole multisets or
from the faces of the orbit polytope (Aguiar-Ardila's cancellation-free
formula), the basis multisets from one generator per part of each
integer partition, the invariant chi from the sum over every refinement
or from a depth-first walk over every ordered set partition, and
structure counts from a literal sum over set partitions.  Set partitions
and ordered set partitions are enumerated recursively here, for the tests
alone.
The refinements of a composition, the submodular function z(S) of an
orbit polytope as a dict over every subset and the exhaustive checks on
it, the per-vertex scan of every subset sum behind the base polytope
check, the order-by-order walk of the chamber census, the CLI's vertex
list sorted by ``Fraction`` values, the ribbon basis product, relabeling
and iterated splits of monoid elements (to state naturality and
coassociativity), the slotwise antipode and product that state the
antipode identity, the Hopf maps with one ``Fraction`` product per term
(the library sums integer numerators instead), and ``gm``, a basis
multiset from tuples of parts, live here too, as only tests use them.
The structure counts from the recurrence on the block holding the last
label, the generating-function expansion A' = B'A in integers, have one
copy, ``orbitopes.selftest.egf_counts``, which the tests import.
"""

from fractions import Fraction
from functools import lru_cache
from itertools import accumulate, chain, combinations, groupby, permutations, product as cartesian
from math import comb

from orbitopes.characters import Character, NSymSeries
from orbitopes.compositions import (
    Composition,
    compositions_of,
    concat,
    iterated_restrict,
    multinomial,
    near_concat,
    restrict_contract,
    splits,
)
from orbitopes.geometry import (
    Point,
    distinct_permutations,
    sorted_values,
    subsets,
)
from orbitopes.hopf_algebra import (
    GeneratorMultiset,
    HopfElement,
    TensorElement,
    _antipode_basis,
    _class,
    _coproduct_basis,
    _multiset,
    coproduct,
    product,
)
from orbitopes.hopf_monoid import OrbitClassElement, delta
from orbitopes.invariants import BinomialPolynomial
from orbitopes.linear import combine


def gm(*comps) -> GeneratorMultiset:
    """The basis multiset of the given compositions, each a tuple of parts."""
    return GeneratorMultiset([Composition(c) for c in comps])


def brute_force_splits(alpha):
    """All (beta, gamma) reassembling to alpha, found by scanning every pair."""
    found = []
    n = alpha.weight
    for i in range(n + 1):
        for beta in compositions_of(i):
            for gamma in compositions_of(n - i):
                if concat(beta, gamma) == alpha:
                    found.append((i, beta, gamma, "concat"))
                elif beta and gamma and near_concat(beta, gamma) == alpha:
                    found.append((i, beta, gamma, "near"))
    return found


def remainder_restrict(alpha: Composition, sizes) -> list[Composition]:
    """The consecutive pieces of ``alpha`` of the given weights, each cut off the rest by one
    ``restrict_contract``; the rest is sliced anew for every piece."""
    pieces = []
    rest = alpha
    for s in sizes:
        piece, rest = restrict_contract(rest, s)
        pieces.append(piece)
    return pieces


def refinements(alpha: Composition) -> list[Composition]:
    """All compositions obtained by splitting each part of ``alpha`` in place."""
    out = [Composition()]
    for part in alpha:
        out = [concat(prefix, piece) for prefix in out for piece in compositions_of(part)]
    return out


def set_partitions(items):
    """Unordered partitions of ``items`` into nonempty blocks.

    The empty sequence has one partition: the empty list of blocks.
    """
    items = list(items)
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for partition in set_partitions(rest):
        for i in range(len(partition)):
            yield partition[:i] + [[first] + partition[i]] + partition[i + 1:]
        yield [[first]] + partition


def ordered_set_partitions(items):
    """Ordered partitions of ``items`` into nonempty blocks (Fubini many)."""
    items = list(items)
    if not items:
        yield ()
        return
    n = len(items)
    for k in range(1, n + 1):
        for block_idx in combinations(range(n), k):
            chosen = set(block_idx)
            block = tuple(items[i] for i in block_idx)
            rest = [items[i] for i in range(n) if i not in chosen]
            for tail in ordered_set_partitions(rest):
                yield (block,) + tail


def count_by_enumeration(n):
    """Structure count as a literal sum over set partitions of n labels."""

    def classes_on_block(m):
        if m == 1:
            return 1
        return sum(1 for c in compositions_of(m) if len(c) >= 2)

    total = 0
    for partition in set_partitions(list(range(n))):
        prod = 1
        for block in partition:
            prod *= classes_on_block(len(block))
        total += prod
    return total


def permutation_vertices(p: Point) -> set[Point]:
    """Every orbit vertex, one per distinct rearrangement of the coordinates."""
    return {Point.from_values(p.ground, values) for values in set(permutations(p.values))}


def naive_max_face(p: Point, y) -> set[Point]:
    """Argmax of the functional over every vertex of ``permutation_vertices``."""
    vertices = permutation_vertices(p)
    value = {v: sum(y[l] * v[l] for l in p.ground) for v in vertices}
    best = max(value.values())
    return {v for v in vertices if value[v] == best}


def points_sorted(points) -> list[dict]:
    """The ``vertices`` output list as the CLI once built it: ``Point``s sorted by their values."""
    return [p.to_json() for p in sorted(points, key=lambda p: p.values)]


def order_first_census(p: Point) -> dict[tuple[str, ...], Point]:
    """The chamber census walked order by order, as the library once did.

    Each of the n! orders finds its vertex by its tuple of coordinate ranks
    in ground order, equal coordinates sharing a rank; the orders on one
    vertex share one ``Point``.
    """
    values = sorted_values(p)
    distinct = [value for value, _ in groupby(values)]
    ranks = [rank for rank, (_, run) in enumerate(groupby(values)) for _ in run]
    shared: dict[tuple[int, ...], Point] = {}
    census = {}
    for order in permutations(p.ground):
        rank_of = dict(zip(order, ranks))
        key = tuple(map(rank_of.__getitem__, p.ground))
        vertex = shared.get(key)
        if vertex is None:
            vertex = shared[key] = Point._of(p.ground, tuple(map(distinct.__getitem__, key)))
        census[order] = vertex
    return census


def submodular_of_orbit(p: Point) -> dict[frozenset, Fraction]:
    """z(S) = sum of the |S| largest coordinates of p, for every subset S of the labels."""
    prefix = list(accumulate(sorted_values(p), initial=Fraction(0)))
    return {frozenset(S): prefix[len(S)] for S in subsets(p.ground)}


def is_submodular(z: dict[frozenset, Fraction]) -> bool:
    """Exhaustive check of z(S&T) + z(S|T) <= z(S) + z(T) over all pairs."""
    for S in z:
        for T in z:
            if z[S & T] + z[S | T] > z[S] + z[T]:
                return False
    return True


def is_cardinality_invariant(z: dict[frozenset, Fraction]) -> bool:
    """True iff z(S) depends only on |S|."""
    by_size: dict[int, Fraction] = {}
    for S, v in z.items():
        if by_size.setdefault(len(S), v) != v:
            return False
    return True


def vertex_scan_table(scaled) -> list[int]:
    """Max over every distinct arrangement of each subset sum, bit i of a mask for position i.

    Rebuilds all 2^n subset sums of each vertex and keeps the elementwise max.
    """
    best = None
    for vertex in distinct_permutations(scaled):
        sums = [0]
        for v in vertex:
            sums += [s + v for s in sums]
        best = sums if best is None else list(map(max, best, sums))
    return best


def eval_monomial(coeffs, t) -> Fraction:
    t = Fraction(t)
    acc = Fraction(0)
    for c in reversed(list(coeffs)):
        acc = acc * t + Fraction(c)
    return acc


def binom_frac(t, k) -> Fraction:
    t = Fraction(t)
    out = Fraction(1)
    for i in range(k):
        out = out * (t - i) / (i + 1)
    return out


def ribbon_mul(beta: Composition, gamma: Composition) -> tuple[Composition, ...]:
    """Basis product: concatenation plus near-concatenation (one term if an operand is empty)."""
    if not beta:
        return (gamma,)
    if not gamma:
        return (beta,)
    return (concat(beta, gamma), near_concat(beta, gamma))


def pairwise_series_mul(f: NSymSeries, g: NSymSeries) -> NSymSeries:
    """Bilinear extension of the basis product, truncated to the common degree."""
    if f.degree != g.degree:
        raise ValueError("truncation degrees differ")
    out: dict[Composition, Fraction] = {}
    for beta, fb in f.coeffs.items():
        for gamma, gc in g.coeffs.items():
            if beta.weight + gamma.weight > f.degree:
                continue
            for alpha in ribbon_mul(beta, gamma):
                out[alpha] = out.get(alpha, Fraction(0)) + fb * gc
    return NSymSeries(f.degree, out)


def cut_series_mul(f: NSymSeries, g: NSymSeries) -> NSymSeries:
    """The series product output-first: the coefficient on alpha sums f[beta] g[gamma] over its cuts.

    Every composition of weight <= degree is visited, so the cost is 2^degree
    whatever the supports.
    """
    if f.degree != g.degree:
        raise ValueError("truncation degrees differ")
    out: dict[Composition, Fraction] = {}
    for n in range(f.degree + 1):
        for alpha in compositions_of(n):
            out[alpha] = sum((f.coefficient(beta) * g.coefficient(gamma)
                              for beta, gamma in splits(alpha)), Fraction(0))
    return NSymSeries(f.degree, out)


def convolve_value(zeta: Character, psi: Character, alpha: Composition) -> Fraction:
    """The convolution's value on one composition, straight from the cut expansion."""
    n = alpha.weight
    total = Fraction(0)
    for beta, gamma in splits(alpha):
        total += comb(n, beta.weight) * zeta.on_composition(beta) * psi.on_composition(gamma)
    return total


def termwise_antipode(x: HopfElement) -> HopfElement:
    """The antipode with one Fraction product per (input term, cached term) pair."""
    return HopfElement._of(combine(
        (key, v * w) for gm, v in x.coeffs.items() for key, w in _antipode_basis(gm).items()
    ))


def termwise_coproduct_in_slot(t: TensorElement, slot: int) -> TensorElement:
    """The coproduct in one slot with one Fraction product per (input term, cached term) pair."""
    return TensorElement._of(combine(
        (key[:slot] + inner + key[slot + 1:], v * w)
        for key, v in t.coeffs.items()
        for inner, w in _coproduct_basis(key[slot]).items()
    ), t.arity + 1)


def termwise_coproduct(x: HopfElement) -> TensorElement:
    """The coproduct as ``termwise_coproduct_in_slot`` on x read as a tensor of arity 1."""
    return termwise_coproduct_in_slot(TensorElement._of({(gm,): v for gm, v in x.coeffs.items()}, 1), 0)


def apply_antipode_slot(t: TensorElement, slot: int) -> TensorElement:
    """Replace one tensor slot by its antipode (used to state the defining identity)."""
    return TensorElement._of(combine(
        (key[:slot] + (gm,) + key[slot + 1:], v * w)
        for key, v in t.coeffs.items()
        for gm, w in _antipode_basis(key[slot]).items()
    ), t.arity)


def multiply_slots(t: TensorElement) -> HopfElement:
    """Multiply all tensor slots back down to the algebra."""
    return HopfElement._of(combine(
        (_multiset(chain.from_iterable(key)), v) for key, v in t.coeffs.items()
    ))


@lru_cache(maxsize=None)
def _recursive_antipode_basis(gm: GeneratorMultiset) -> HopfElement:
    # m(S (x) id)Delta(x) = counit(x) 1 pins S(x) once S is known below degree |x|
    if gm.degree == 0:
        return HopfElement.unit()
    acc = HopfElement()
    for (left, right), v in coproduct(HopfElement.basis(gm)).coeffs.items():
        if left.degree < gm.degree:
            acc = acc + v * product(_recursive_antipode_basis(left), HopfElement.basis(right))
    return (-1) * acc


def recursive_antipode(x: HopfElement) -> HopfElement:
    """The antipode by degree recursion on whole basis multisets, from the coproduct."""
    acc = HopfElement()
    for gm, v in x.coeffs.items():
        acc = acc + v * _recursive_antipode_basis(gm)
    return acc


def face_antipode(alpha: Composition) -> HopfElement:
    """S(alpha) as (-1)^n times the sum of (-1)^dim Q * Q over the faces Q of O(alpha).

    Aguiar-Ardila, Hopf monoids and generalized permutahedra, Thm 7.1.  A face
    is a composition c of n with multinomial(c) labelings; its pieces are
    alpha cut at the partial sums of c, and a piece of weight k spans k - 1
    dimensions if it has two or more parts and is a point otherwise.  Two
    one-part pieces meeting at a cut strictly inside a part of alpha lie in
    one tied level of the point, so c names the same face as the composition
    that merges them and is skipped.
    """
    n = alpha.weight
    inner = set(range(1, n)) - set(accumulate(alpha))
    coeffs: dict[GeneratorMultiset, Fraction] = {}
    for c in compositions_of(n):
        pieces = iterated_restrict(alpha, c)
        if any(len(p) == len(q) == 1 and cut in inner
               for p, q, cut in zip(pieces, pieces[1:], accumulate(c))):
            continue
        dim = sum(p.weight - 1 for p in pieces if len(p) > 1)
        face = GeneratorMultiset(a for p in pieces for a in _class(p))
        coeffs[face] = coeffs.get(face, 0) + (-1) ** (n + dim) * multinomial(c)
    return HopfElement(coeffs)


def partition_multisets(max_degree: int) -> list[GeneratorMultiset]:
    """Basis multisets of weight <= max_degree: a generator of each part's weight, per partition."""

    def partitions(n, largest):
        if n == 0:
            yield ()
        for k in range(min(n, largest), 0, -1):
            for rest in partitions(n - k, k):
                yield (k,) + rest

    found = set()
    for n in range(max_degree + 1):
        for shape in partitions(n, n):
            pools = [[a for a in compositions_of(k) if len(a) >= 2 or a == (1,)] for k in shape]
            found.update(GeneratorMultiset(choice) for choice in cartesian(*pools))
    return sorted(found, key=lambda gm: (gm.degree, gm))


def refinement_chi(alpha: Composition) -> BinomialPolynomial:
    """Sum of multinomial(gamma) * binom(t, parts(gamma)) over all 2^(n - l) refinements."""
    out: dict[int, Fraction] = {}
    for gamma in refinements(alpha):
        k = len(gamma)
        out[k] = out.get(k, Fraction(0)) + multinomial(gamma)
    return BinomialPolynomial(out)


def walk_chi(x: OrbitClassElement) -> BinomialPolynomial:
    """chi of an element by a depth-first walk over every all-point ordered set partition.

    Each prefix is split once with ``delta``; a first block whose factor
    is not a product of points kills every partition that starts with it,
    so its subtree is skipped.  Nothing is shared between subtrees.
    """
    counts = [0] * (len(x.ground) + 1)  # counts[k]: all-point partitions into k blocks
    stack = [(x, 0)]  # the element left to split, and the number of blocks taken so far
    while stack:
        rest, k = stack.pop()
        if not rest.ground:
            counts[k] += 1
            continue
        labels = sorted(rest.ground)
        for size in range(1, len(labels) + 1):
            for part in combinations(labels, size):
                factor, tail = delta(rest, part)
                if not any(len(block) > 1 for block, _ in factor.blocks):
                    stack.append((tail, k + 1))
    return BinomialPolynomial(dict(enumerate(counts)))


def relabel(x: OrbitClassElement, sigma) -> OrbitClassElement:
    """Push the element through a bijection of label sets; compositions are untouched."""
    if set(sigma) != set(x.ground):
        raise ValueError("relabeling must be defined on exactly the ground set")
    if len(set(sigma.values())) != len(x.ground):
        raise ValueError("relabeling must be a bijection")
    return OrbitClassElement((frozenset(sigma[l] for l in labels), comp) for labels, comp in x.blocks)


def delta_iterated(x: OrbitClassElement, parts) -> list[OrbitClassElement]:
    """Split ``x`` along an ordered partition of its ground set, one ``delta`` per part.

    ``parts`` is any sequence of label collections; empty parts are allowed
    and produce unit factors.
    """
    part_sets = [frozenset(p) for p in parts]
    total = sum(len(p) for p in part_sets)
    union = frozenset().union(*part_sets)
    if union != x.ground or total != len(x.ground):
        raise ValueError("parts must form an ordered partition of the ground set")
    factors = []
    rest = x
    for part in part_sets:
        left, rest = delta(rest, part)
        factors.append(left)
    return factors

import random
from collections import Counter

import pytest
from hypothesis import given, strategies as st

from orbitopes import hopf_monoid
from orbitopes.compositions import Composition, compositions_of, stirling_row
from orbitopes.geometry import standard_ground, subsets
from orbitopes.hopf_monoid import (
    COUNT_MAX_N,
    UNIT,
    OrbitClassElement,
    class_of,
    count_structures,
    delta,
    mu,
)
from orbitopes.selftest import egf_counts
from oracles import (
    count_by_enumeration, delta_iterated, ordered_set_partitions, relabel, set_partitions,
)

C = Composition


def test_class_of_examples():
    x = class_of(C((2, 1)), "abc")
    assert x.blocks == frozenset({(frozenset("abc"), C((2, 1)))})

    y = class_of(C((3,)), "abc")
    assert y.blocks == frozenset((frozenset(l), C((1,))) for l in "abc")

    assert class_of(C(()), ()) == UNIT and not UNIT.ground and not UNIT.blocks

    with pytest.raises(ValueError):
        class_of(C((2,)), "abc")


def test_canonical_form_identifies_points_with_singleton_products():
    # the one-part class is structurally the product of n singletons
    singles = class_of(C((1,)), "a")
    for label in "bc":
        singles = mu(singles, class_of(C((1,)), label))
    assert singles == class_of(C((3,)), "abc")


def test_element_validation():
    with pytest.raises(ValueError, match="disjoint"):
        OrbitClassElement([(frozenset("ab"), C((1, 1))), (frozenset("b"), C((1,)))])
    with pytest.raises(ValueError, match="fit"):
        OrbitClassElement([(frozenset("ab"), C((1,)))])
    # a plain tuple is read as a composition; equal elements hash equal
    x = OrbitClassElement([("ab", (1, 1)), ("c", (1,))])
    assert all(type(comp) is Composition for _, comp in x.blocks)
    y = mu(class_of(C((1, 1)), "ab"), class_of(C((1,)), "c"))
    assert x == y and len({x, y}) == 1


def test_ground_is_the_union_of_the_blocks():
    rng = random.Random(32)
    pool = [f"{c}{i}" for c in "abxy" for i in range(6)]
    for _ in range(300):
        labels = rng.sample(pool, rng.randint(0, 8))
        cut = rng.randint(0, len(labels))
        x = class_of(rng.choice(compositions_of(cut)), labels[:cut])
        y = class_of(rng.choice(compositions_of(len(labels) - cut)), labels[cut:])
        xy = mu(x, y)
        S = {l for l in labels if rng.random() < 0.5}
        left, right = delta(xy, S)
        for z in (x, y, xy, left, right):
            assert z.ground == frozenset().union(*(b for b, _ in z.blocks)), z
        assert left.ground == S and right.ground == xy.ground - S
        # equal blocks make equal elements with equal hashes, whatever built them
        twin = OrbitClassElement(list(xy.blocks)[::-1])
        assert twin == xy and hash(twin) == hash(xy) and twin.ground == xy.ground


def test_relabel_examples():
    x = class_of(C((2, 1)), "abc")
    assert relabel(x, {"a": "a", "b": "b", "c": "c"}) == x
    assert relabel(x, {"a": "b", "b": "a", "c": "c"}) == x
    y = relabel(x, {"a": "x", "b": "y", "c": "z"})
    assert y == class_of(C((2, 1)), "xyz")
    with pytest.raises(ValueError, match="bijection"):
        relabel(x, {"a": "x", "b": "x", "c": "z"})
    with pytest.raises(ValueError):
        relabel(x, {"a": "x", "b": "y"})


def test_relabel_functorial():
    x = mu(class_of(C((1, 2)), "abc"), class_of(C((1,)), "d"))
    sigma = {"a": "p", "b": "q", "c": "r", "d": "s"}
    tau = {"p": "w", "q": "x", "r": "y", "s": "z"}
    composed = {k: tau[v] for k, v in sigma.items()}
    assert relabel(relabel(x, sigma), tau) == relabel(x, composed)


def test_mu_examples():
    y = class_of(C((1, 1)), "de")
    assert mu(UNIT, y) == y and mu(y, UNIT) == y

    assert mu(class_of(C((1,)), "a"), class_of(C((1,)), "b")) == class_of(C((2,)), "ab")

    z = mu(class_of(C((2, 1)), "abc"), y)
    assert len(z.blocks) == 2

    with pytest.raises(ValueError, match="overlap"):
        mu(class_of(C((1,)), "a"), class_of(C((1,)), "a"))


def test_mu_commutative_associative():
    x = class_of(C((2, 1)), "abc")
    y = class_of(C((1, 1)), "de")
    z = class_of(C((1,)), "f")
    assert mu(x, y) == mu(y, x)
    assert mu(mu(x, y), z) == mu(x, mu(y, z))


def test_delta_examples():
    x = class_of(C((1, 2, 1)), "abcd")
    left, right = delta(x, {"a"})
    assert left == class_of(C((1,)), "a")
    assert right == class_of(C((2, 1)), "bcd")

    left, right = delta(x, set())
    assert left == UNIT and right == x

    x = mu(class_of(C((2, 1)), "abc"), class_of(C((1, 1)), "de"))
    left, right = delta(x, {"a", "b", "d"})
    assert left == mu(class_of(C((2,)), "ab"), class_of(C((1,)), "d"))
    assert right == mu(class_of(C((1,)), "c"), class_of(C((1,)), "e"))

    with pytest.raises(ValueError):
        delta(x, {"z"})


def test_delta_iterated_examples():
    x = class_of(C((1, 2, 1)), "abcd")
    assert delta_iterated(x, [set("abcd")]) == [x]
    factors = delta_iterated(x, [set("ab"), set("cd")])
    assert factors == [class_of(C((1, 1)), "ab"), class_of(C((1, 1)), "cd")]

    y = class_of(C((3,)), "abc")
    assert delta_iterated(y, [{"a"}, {"b"}, {"c"}]) == [
        class_of(C((1,)), "a"), class_of(C((1,)), "b"), class_of(C((1,)), "c"),
    ]

    assert delta_iterated(x, [set(), set("abcd")])[0] == UNIT

    with pytest.raises(ValueError, match="partition"):
        delta_iterated(x, [{"a"}, {"a", "b", "c", "d"}])


def test_delta_counital():
    for n in range(5):
        for alpha in compositions_of(n):
            x = class_of(alpha, standard_ground(n))
            assert delta(x, set()) == (UNIT, x)
            assert delta(x, set(x.ground)) == (x, UNIT)


def _elements_over(labels):
    labels = tuple(labels)
    if not labels:
        return [UNIT]
    out = []
    for alpha in compositions_of(len(labels)):
        out.append(class_of(alpha, labels))
    return out


def test_hopf_compatibility_exhaustive():
    # delta of a product = blockwise products of the four corner deltas
    for m in range(5 + 1):
        labels = standard_ground(m)
        for s_prime in subsets(labels):
            t_prime = tuple(l for l in labels if l not in set(s_prime))
            for x in _elements_over(s_prime):
                for y in _elements_over(t_prime):
                    xy = mu(x, y)
                    for s in subsets(labels):
                        s = set(s)
                        xl, xr = delta(x, s & set(s_prime))
                        yl, yr = delta(y, s & set(t_prime))
                        assert delta(xy, s) == (mu(xl, yl), mu(xr, yr))


def test_delta_iterated_coassociative():
    for n in range(5 + 1):
        labels = standard_ground(n)
        for alpha in compositions_of(n):
            x = class_of(alpha, labels)
            for parts in ordered_set_partitions(labels):
                parts = [set(p) for p in parts]
                full = delta_iterated(x, parts)
                for j in range(len(parts) + 1):
                    head_set = set().union(*parts[:j]) if parts[:j] else set()
                    head, tail = delta(x, head_set)
                    regrouped = delta_iterated(head, parts[:j]) + delta_iterated(tail, parts[j:])
                    assert regrouped == full


@given(st.integers(1, 5), st.randoms())
def test_relabel_natural_for_mu_and_delta(n, rng):
    labels = standard_ground(n)
    comps = list(compositions_of(n))
    alpha = rng.choice(comps)
    x = class_of(alpha, labels)
    image = [f"L{i}" for i in range(n)]
    rng.shuffle(image)
    sigma = dict(zip(labels, image))

    S = {l for l in labels if rng.random() < 0.5}
    left, right = delta(x, S)
    sig_s = {k: v for k, v in sigma.items() if k in S}
    sig_t = {k: v for k, v in sigma.items() if k not in S}
    assert delta(relabel(x, sigma), {sigma[l] for l in S}) == (
        relabel(left, sig_s), relabel(right, sig_t)
    )

    extra = class_of(C((len(labels),)), [f"M{i}" for i in range(n)])
    tau = {f"M{i}": f"N{i}" for i in range(n)}
    assert relabel(mu(x, extra), {**sigma, **tau}) == mu(relabel(x, sigma), relabel(extra, tau))


def test_count_structures_examples():
    assert count_structures(3) == 7
    assert count_structures(4) == 29
    assert count_structures(0) == 1
    with pytest.raises(ValueError):
        count_structures(-1)


@pytest.mark.parametrize("value", [2.0, "3"])
def test_count_structures_refuses_a_non_integer(value):
    with pytest.raises(ValueError, match=f"^n must be an integer, got {value!r}$"):
        count_structures(value)


def test_count_structures_matches_direct_partition_sum():
    for n in range(8):
        assert count_structures(n) == count_by_enumeration(n)
        # the Stirling row count_structures and chi read: set partitions by block count
        blocks = Counter(len(partition) for partition in set_partitions(range(n)))
        assert stirling_row(n) == [blocks[k] for k in range(n + 1)], n


def test_count_structures_keeps_the_longest_row_read(monkeypatch):
    monkeypatch.setattr(hopf_monoid, "_row", (0, [1]))
    largest = -1
    expected = egf_counts(41)
    for n in [7, 3, 40, 12, 40, 0, 41, 1]:
        assert count_structures(n) == expected[n], n
        largest = max(largest, n)
        assert hopf_monoid._row[0] == largest + 1
        assert hopf_monoid._row[1] == stirling_row(largest + 1)
    kept = hopf_monoid._row
    for refused in (-1, COUNT_MAX_N + 1, "3", 2.0):
        with pytest.raises(ValueError):
            count_structures(refused)
        assert hopf_monoid._row is kept


def test_count_structures_matches_egf_expansion():
    expected = egf_counts(600)
    for n in [600, 300, *range(61)]:
        assert count_structures(n) == expected[n], n
    for value, message in [(-1, "max_n must be nonnegative"), (2.0, "max_n must be an integer, got 2.0"),
                           ("3", "max_n must be an integer, got '3'")]:
        with pytest.raises(ValueError, match=f"^{message}$"):
            egf_counts(value)


def test_count_structures_bound():
    assert count_structures(COUNT_MAX_N) > 0
    with pytest.raises(ValueError, match=f"count bound exceeded: n = {COUNT_MAX_N + 1} > {COUNT_MAX_N}"):
        count_structures(COUNT_MAX_N + 1)

import random
from fractions import Fraction
from math import comb, gcd

import pytest

from orbitopes import compositions
from orbitopes.compositions import Composition, compositions_of, is_generator
from orbitopes.geometry import orbit_vertices, representative_point, standard_ground, subsets
from orbitopes.hopf_algebra import (
    EMPTY_MULTISET,
    GeneratorMultiset,
    HopfElement,
    TensorElement,
    _antipode_basis,
    _coproduct_basis,
    antipode,
    coproduct,
    coproduct_in_slot,
    counit,
    inject,
    product,
)
from orbitopes.hopf_monoid import class_of, delta
from oracles import (
    apply_antipode_slot,
    face_antipode,
    gm,
    multiply_slots,
    partition_multisets,
    recursive_antipode,
    termwise_antipode,
    termwise_coproduct,
    termwise_coproduct_in_slot,
)

C = Composition
F = Fraction


def elem(*comps):
    return HopfElement.basis(gm(*comps))


def test_generator_multiset_validation():
    gm((1,), (2, 1))
    with pytest.raises(ValueError, match="generator"):
        gm((3,))
    assert gm((2, 1), (1,)) == gm((1,), (2, 1))
    # the public element constructors coerce plain tuple keys and refuse non-generators
    x = HopfElement({((2, 1), (1,)): 1})
    assert x == elem((1,), (2, 1))
    assert all(type(a) is Composition for key in x.coeffs for a in key)
    t = TensorElement({(((2, 1), (1,)), ()): 1})
    assert t == TensorElement({(gm((1,), (2, 1)), EMPTY_MULTISET): 1})
    with pytest.raises(ValueError, match="does not have arity 3"):
        TensorElement(t.coeffs, arity=3)
    with pytest.raises(ValueError, match="generator"):
        HopfElement({((3,),): 1})
    with pytest.raises(ValueError, match="generator"):
        TensorElement({(((3,),), ()): 1})


def test_union_is_the_validating_constructor():
    rng = random.Random(7)
    pool = partition_multisets(6)
    for _ in range(200):
        a, b = rng.choice(pool), rng.choice(pool)
        merged = a.union(b)
        assert type(merged) is GeneratorMultiset and merged == GeneratorMultiset(a + b), (a, b)


BAD_ARITIES = [
    (1.5, "tensor arity must be an integer, got 1.5"),
    ("2", "tensor arity must be an integer, got '2'"),
    (-1, "tensor arity must be nonnegative, got -1"),
]


@pytest.mark.parametrize("arity, message", BAD_ARITIES)
def test_tensor_arity_is_a_nonnegative_integer(arity, message):
    with pytest.raises(ValueError) as info:
        TensorElement({}, arity=arity)
    assert str(info.value) == message
    assert TensorElement({}, arity=0).arity == 0


@pytest.mark.parametrize("arity, message", BAD_ARITIES)
def test_tensor_unit_checks_its_arity(arity, message):
    with pytest.raises(ValueError) as info:
        TensorElement.unit(arity)
    assert str(info.value) == message
    unit = TensorElement.unit(0)
    assert unit.arity == 0 and unit.coeffs == {(): 1}


def test_inject_examples():
    assert inject(C((2, 1))) == elem((2, 1))
    assert inject(C((3,))) == elem((1,), (1,), (1,))
    assert inject(C(())) == HopfElement.unit()


def test_product_examples():
    x = elem((2, 1))
    assert product(HopfElement.unit(), x) == x
    assert product(inject(C((1,))), inject(C((1,)))) == inject(C((2,)))
    mixed = product(elem((2, 1)) + elem((1,)), elem((1,)))
    assert mixed == elem((2, 1), (1,)) + elem((1,), (1,))


def test_product_commutative_associative_bilinear():
    a, b, c = elem((1, 2)), elem((1,)), elem((1, 1))
    assert product(a, b) == product(b, a)
    assert product(product(a, b), c) == product(a, product(b, c))
    assert product(2 * a + b, c) == 2 * product(a, c) + product(b, c)


def test_coproduct_of_generator_1_2_1():
    got = coproduct(inject(C((1, 2, 1))))
    expected = TensorElement({
        (EMPTY_MULTISET, gm((1, 2, 1))): F(1),
        (gm((1,)), gm((2, 1))): F(4),
        (gm((1, 1)), gm((1, 1))): F(6),
        (gm((1, 2)), gm((1,))): F(4),
        (gm((1, 2, 1)), EMPTY_MULTISET): F(1),
    })
    assert got == expected


def test_coproduct_unit_and_primitive():
    assert coproduct(HopfElement.unit()) == TensorElement.unit()
    one = gm((1,))
    assert coproduct(inject(C((1,)))) == TensorElement({
        (EMPTY_MULTISET, one): F(1),
        (one, EMPTY_MULTISET): F(1),
    })


def test_counit_examples():
    assert counit(HopfElement.unit()) == 1
    assert counit(elem((2, 1))) == 0
    assert counit(3 * HopfElement.unit() + 2 * elem((1,))) == 3


def test_one_part_relation_is_well_defined():
    # n-fold product of the primitive's coproduct = binomial expansion of the point class
    for n in range(1, 7):
        via_product = TensorElement.unit()
        for _ in range(n):
            via_product = via_product * coproduct(inject(C((1,))))
        direct = TensorElement({
            (gm(*[(1,)] * i), gm(*[(1,)] * (n - i))): comb(n, i) for i in range(n + 1)
        })
        assert via_product == direct


def test_coproduct_of_large_point_class_is_binomial():
    n = 300
    expected = {(gm(*[(1,)] * j), gm(*[(1,)] * (n - j))): comb(n, j) for j in range(n + 1)}
    assert coproduct(inject(C((n,)))).coeffs == expected


def test_coassociativity_on_generators():
    for n in range(1, 7):
        for alpha in compositions_of(n):
            x = inject(alpha)
            cp = coproduct(x)
            assert coproduct_in_slot(cp, 0) == coproduct_in_slot(cp, 1)


@pytest.mark.parametrize("slot", [-1, 2, 1.0, "0", None])
def test_coproduct_in_slot_refuses_a_slot_outside_the_tensor(slot):
    cp = coproduct(inject(C((1, 2))))
    with pytest.raises(ValueError, match="slot"):
        coproduct_in_slot(cp, slot)


def test_coproduct_is_algebra_morphism_on_random_elements():
    rng = random.Random(3)
    basis_pool = partition_multisets(5)
    for _ in range(40):
        x = HopfElement({rng.choice(basis_pool): F(rng.randint(-4, 4), rng.randint(1, 3))
                         for _ in range(3)})
        y = HopfElement({rng.choice(basis_pool): F(rng.randint(-4, 4), rng.randint(1, 3))
                         for _ in range(3)})
        assert coproduct(product(x, y)) == coproduct(x) * coproduct(y)


def test_antipode_examples():
    assert antipode(HopfElement.unit()) == HopfElement.unit()
    assert antipode(inject(C((1,)))) == -1 * inject(C((1,)))
    expected = 2 * elem((1,), (1,)) + (-1) * elem((1, 1))
    assert antipode(elem((1, 1))) == expected


def test_antipode_identity_small():
    unit_times_counit = lambda x: counit(x) * HopfElement.unit()
    for basis in partition_multisets(4):
        x = HopfElement.basis(basis)
        cp = coproduct(x)
        left = multiply_slots(apply_antipode_slot(cp, 0))
        right = multiply_slots(apply_antipode_slot(cp, 1))
        assert left == unit_times_counit(x)
        assert right == unit_times_counit(x)


def test_antipode_matches_recursion_and_is_multiplicative():
    # per-generator antipode against the degree recursion on whole multisets
    pool = partition_multisets(6)
    for basis in pool:
        x = HopfElement.basis(basis)
        assert antipode(x) == recursive_antipode(x), basis
    rng = random.Random(11)
    for _ in range(40):
        x, y = (HopfElement({rng.choice(pool): F(rng.randint(-4, 4), rng.randint(1, 3))
                             for _ in range(3)}) for _ in range(2))
        assert antipode(x * y) == antipode(x) * antipode(y)


def test_cold_antipode_matches_recursion_in_either_order():
    # the (1)^k prefix path and the generator solve each fill the cold caches first;
    # the oracle, which fills the coproduct cache too, runs after the whole pass
    pool = partition_multisets(7)
    with_one = [m for m in pool if C((1,)) in m]
    without = [m for m in pool if C((1,)) not in m]
    assert with_one and without
    for order in (with_one + without, without + with_one):
        _antipode_basis.cache_clear()
        _coproduct_basis.cache_clear()
        got = [antipode(HopfElement.basis(basis)) for basis in order]
        for basis, image in zip(order, got):
            assert image == recursive_antipode(HopfElement.basis(basis)), basis
            _assert_trusted(image.coeffs)


def test_antipode_and_coproduct_share_one_entry_per_generator():
    for alpha in (C((2, 1)), C((1, 2, 1)), C((3, 1, 2))):
        _antipode_basis.cache_clear()
        _coproduct_basis.cache_clear()
        antipode(inject(alpha))
        before = _coproduct_basis.cache_info()
        coproduct(inject(alpha))
        after = _coproduct_basis.cache_info()
        assert (after.hits - before.hits, after.misses - before.misses) == (1, 0), alpha


def test_antipode_matches_face_formula():
    generators = [alpha for n in range(1, 9) for alpha in compositions_of(n) if is_generator(alpha)]
    assert len(generators) == 248
    for alpha in generators:
        assert antipode(inject(alpha)) == face_antipode(alpha), alpha


def test_antipode_vertex_term_counts_orbit_vertices():
    # the faces of class (1)^n are the vertices of O(alpha), each of dimension 0
    for n in range(1, 7):
        points = gm(*[(1,)] * n)
        for alpha in compositions_of(n):
            vertices = orbit_vertices(representative_point(alpha, standard_ground(n)))
            assert antipode(inject(alpha)).coeffs[points] == (-1) ** n * len(vertices), alpha


def test_permutahedron_antipode_has_fubini_many_faces():
    # S(1^n) is cancellation-free, and the permutahedron has one face per ordered set partition
    fubini = [1, 3, 13, 75, 541, 4683, 47293, 545835]
    for n, faces in enumerate(fubini, start=1):
        coeffs = antipode(inject(C((1,) * n))).coeffs.values()
        assert sum(abs(v) for v in coeffs) == faces, n


def test_grading():
    assert gm((2, 1), (1, 1)).degree == 5


def test_fock_consistency_with_labeled_splits():
    # the binomial weight on each cut counts the labeled subsets realizing it
    for n in range(1, 6):
        labels = standard_ground(n)
        for alpha in compositions_of(n):
            cp = coproduct(inject(alpha))
            observed: dict = {}
            for S in subsets(labels):
                left, right = delta(class_of(alpha, labels), S)
                key = (
                    gm(*(c for _, c in sorted(left.blocks, key=lambda b: min(b[0])))),
                    gm(*(c for _, c in sorted(right.blocks, key=lambda b: min(b[0])))),
                )
                observed[key] = observed.get(key, 0) + 1
            assert {k: F(v) for k, v in observed.items()} == cp.coeffs


def test_hopf_element_json_roundtrip():
    x = 2 * elem((1, 2), (1,)) + F(-1, 3) * HopfElement.unit()
    data = x.to_json()
    assert HopfElement.from_json(data) == x


def _assert_trusted(coeffs: dict, arity: int = 0):
    # what the trusted constructors rely on: nonzero Fractions on sorted generator multisets
    for key, value in coeffs.items():
        assert type(value) is Fraction and value != 0, (key, value)
        for gm in (key if arity else (key,)):
            assert type(gm) is GeneratorMultiset and list(gm) == sorted(gm), key
            assert all(is_generator(alpha) for alpha in gm), key
        assert not arity or len(key) == arity, key


def test_public_maps_build_trusted_elements():
    rng = random.Random(29)
    pool = partition_multisets(8)
    assert len(pool) == 730
    scalars = [F(rng.choice([-1, 1]) * rng.randint(1, 9), rng.randint(1, 7)) for _ in pool]
    assert any(c < 0 for c in scalars) and any(c.denominator > 1 for c in scalars)
    elements = [c * HopfElement.basis(m) for c, m in zip(scalars, pool)]
    for x, y in zip(elements, elements[1:] + elements[:1]):
        cp = coproduct(x)
        _assert_trusted(antipode(x).coeffs)
        _assert_trusted(cp.coeffs, 2)
        _assert_trusted(product(x, y).coeffs)
        _assert_trusted(coproduct_in_slot(cp, 1).coeffs, 3)
        _assert_trusted(apply_antipode_slot(cp, 0).coeffs, 2)
        _assert_trusted(multiply_slots(cp).coeffs)


def test_basis_caches_are_bounded_and_hold_integers():
    # the composition layer keeps no cache: the two basis caches are the algebra's only state
    assert not [f for f in vars(compositions).values() if hasattr(f, "cache_info")]
    basis = partition_multisets(5)
    for cache in (_coproduct_basis, _antipode_basis):
        # the warm pass over every multiset of degree <= 9 must stay all hits
        assert cache.cache_info().maxsize is not None
        assert cache.cache_info().maxsize >= len(partition_multisets(9))
        for gm in basis:
            assert all(type(v) is int and v for v in cache(gm).values()), gm


def _random_element(rng, pool, terms: int) -> HopfElement:
    # denominators of several primes, so the common denominator is a proper lcm
    return HopfElement({rng.choice(pool): F(rng.choice([-1, 1]) * rng.randint(1, 9),
                                            rng.choice([1, 2, 3, 4, 6, 35]))
                        for _ in range(terms)})


def _assert_normalized(element, arity: int = 0):
    _assert_trusted(element.coeffs, arity)
    assert all(v.denominator > 0 and gcd(v.numerator, v.denominator) == 1 for v in element.coeffs.values())


@pytest.mark.parametrize("terms", [1, 2, 5])
def test_maps_on_integer_numerators_match_termwise_fractions(terms):
    # one input term scales one cached image directly; several are summed and combined
    rng = random.Random(40 + terms)
    pool = partition_multisets(6)
    for _ in range(30):
        x = _random_element(rng, pool, terms)
        cx = coproduct(x)
        assert cx == coproduct_in_slot(TensorElement._of({(gm,): v for gm, v in x.coeffs.items()}, 1), 0)
        for got, want, arity in [
            (antipode(x), termwise_antipode(x), 0),
            (cx, termwise_coproduct(x), 2),
            (coproduct_in_slot(cx, 1), termwise_coproduct_in_slot(cx, 1), 3),
        ]:
            assert got == want, x
            _assert_normalized(got, arity)


def test_cancelling_images_leave_normalized_zero_free_outputs():
    # S(S(x)) = x drops every other term of S's image; the sums below drop chosen terms
    rng = random.Random(17)
    pool = partition_multisets(6)
    for _ in range(30):
        x = _random_element(rng, pool, 4)
        twice = antipode(antipode(x))
        assert twice == x
        _assert_normalized(twice)
    # S((1,1)) = 2 (1)(1) - (1,1) and S((1)(1)) = (1)(1): 1/6 * 2 + 1/6 = 1/2, and 2 - 2 = 0
    x = F(1, 6) * elem((1, 1)) + F(1, 6) * elem((1,), (1,))
    assert antipode(x).coeffs == {gm((1,), (1,)): F(1, 2), gm((1, 1)): F(-1, 6)}
    assert antipode(elem((1, 1)) - 2 * elem((1,), (1,))).coeffs == {gm((1, 1)): -1}
    # both classes of weight 2 have 2 (1) (x) (1) in their coproducts
    cp = coproduct(elem((1, 1)) - elem((1,), (1,)))
    assert (gm((1,)), gm((1,))) not in cp.coeffs and len(cp.coeffs) == 4
    lifted = coproduct_in_slot(TensorElement({(gm((1, 1)), EMPTY_MULTISET): 1,
                                              (gm((1,), (1,)), EMPTY_MULTISET): -1}), 0)
    assert len(lifted.coeffs) == 4 and all(len(key) == 3 for key in lifted.coeffs)

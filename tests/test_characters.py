import random
import time
from fractions import Fraction
from math import gcd

import pytest

from orbitopes.characters import (
    Character,
    NSymSeries,
    char_to_series,
    convolve,
    in_group_G,
    invert_character,
    series_inverse,
    series_mul,
    series_to_char,
    _rows,
)
from orbitopes.compositions import Composition, compositions_of, concat, is_generator, near_concat
from orbitopes.selftest import random_character
from oracles import convolve_value, cut_series_mul, pairwise_series_mul, ribbon_mul

C = Composition
F = Fraction


def random_group_series(rng, degree=6) -> NSymSeries:
    return char_to_series(random_character(rng, degree))


def test_ribbon_mul_examples():
    # the oracle's basis product, and the series kernel's on one-term series
    cases = [((1,), (1,), ((1, 1), (2,))), ((), (2, 1), ((2, 1),)), ((2,), (1, 1), ((2, 1, 1), (3, 1)))]
    for beta, gamma, expected in cases:
        assert ribbon_mul(C(beta), C(gamma)) == tuple(map(C, expected))
        product = series_mul(NSymSeries(4, {beta: 1}), NSymSeries(4, {gamma: 1}))
        assert product == NSymSeries(4, dict.fromkeys(expected, 1))


def test_series_mul_examples():
    one = NSymSeries.unit(3)
    r1 = NSymSeries(3, {C((1,)): F(1)})
    got = series_mul(one + r1, one - 1 * r1)
    assert got == NSymSeries(3, {C(()): F(1), C((2,)): F(-1), C((1, 1)): F(-1)})

    f = NSymSeries(3, {C((2, 1)): F(5), C(()): F(2)})
    assert series_mul(f, NSymSeries.unit(3)) == f == f * NSymSeries.unit(3)

    # cube of the degree-one ribbon: every composition of 3, coefficient 1
    cube_left = series_mul(series_mul(r1, r1), r1)
    cube_right = series_mul(r1, series_mul(r1, r1))
    expected = NSymSeries(3, {alpha: F(1) for alpha in compositions_of(3)})
    assert cube_left == cube_right == expected


def test_series_mul_degree_mismatch():
    with pytest.raises(ValueError, match="degrees differ"):
        series_mul(NSymSeries.unit(3), NSymSeries.unit(4))


def test_series_truncation():
    r3 = NSymSeries(3, {C((3,)): F(1)})
    assert series_mul(r3, r3) == NSymSeries(3, {})
    with pytest.raises(ValueError, match="truncation"):
        NSymSeries(2, {C((3,)): F(1)})


def test_series_inverse_examples():
    assert series_inverse(NSymSeries.unit(4)) == NSymSeries.unit(4)

    f = NSymSeries.unit(4) + NSymSeries(4, {C((1,)): F(1)})
    g = series_inverse(f)
    assert g.coefficient(C((1,))) == -1
    assert g.coefficient(C((2,))) == 1 and g.coefficient(C((1, 1))) == 1
    assert series_mul(f, g) == NSymSeries.unit(4)

    two = 2 * NSymSeries.unit(4)
    assert series_inverse(two) == F(1, 2) * NSymSeries.unit(4)

    with pytest.raises(ValueError, match="non-invertible"):
        series_inverse(NSymSeries(4, {C((1,)): F(1)}))


def test_series_inverse_random():
    rng = random.Random(5)
    for _ in range(50):
        coeffs = {C(()): F(rng.randint(1, 5))}
        for n in range(1, 7):
            for alpha in compositions_of(n):
                if rng.random() < 0.4:
                    coeffs[alpha] = F(rng.randint(-4, 4), rng.randint(1, 3))
        f = NSymSeries(6, coeffs)
        assert series_mul(f, series_inverse(f)) == NSymSeries.unit(6)


def test_in_group_G_examples():
    assert in_group_G(char_to_series(Character.basic(6)))
    assert in_group_G(NSymSeries.unit(6))
    assert not in_group_G(NSymSeries.unit(6) + NSymSeries(6, {C((2,)): F(1)}))
    assert not in_group_G(2 * char_to_series(Character.basic(6)))


def test_char_to_series_examples():
    f = char_to_series(Character.basic(2))
    assert f == NSymSeries(2, {C(()): F(1), C((1,)): F(1), C((2,)): F(1, 2)})

    assert char_to_series(Character.identity(2)) == NSymSeries.unit(2)

    zeta = Character(2, {C((1,)): F(1), C((1, 1)): F(2)})
    assert char_to_series(zeta) == NSymSeries(
        2, {C(()): F(1), C((1,)): F(1), C((2,)): F(1, 2), C((1, 1)): F(1)}
    )


def test_char_series_roundtrip():
    rng = random.Random(6)
    for _ in range(25):
        zeta = random_character(rng, 6)
        f = char_to_series(zeta)
        assert in_group_G(f)
        assert series_to_char(f) == zeta
    g = random_group_series(rng)
    assert char_to_series(series_to_char(g)) == g
    with pytest.raises(ValueError, match="group"):
        series_to_char(NSymSeries(3, {C(()): F(1), C((2,)): F(7)}))


def test_convolve_examples():
    basic = Character.basic(6)
    eps = Character.identity(6)
    assert convolve(basic, eps) == basic
    assert convolve(eps, basic) == basic

    inv = invert_character(basic)
    conv = convolve(basic, inv)
    assert conv.on_composition(C((1,))) == 0
    assert conv.on_composition(C((1, 1))) == 0
    assert conv.on_composition(C((2,))) == 0

    assert convolve_value(basic, basic, C((1, 1))) == 2
    assert convolve(basic, basic).on_composition(C((1, 1))) == 2


def test_convolve_is_multiplicative_on_one_part_classes():
    # the splits formula on (n) already equals the n-th power of the value on (1)
    rng = random.Random(8)
    for _ in range(20):
        zeta, psi = random_character(rng, 6), random_character(rng, 6)
        conv = convolve(zeta, psi)
        for n in range(1, 7):
            assert convolve_value(zeta, psi, C((n,))) == conv.on_composition(C((1,))) ** n


def test_convolution_group_axioms():
    rng = random.Random(9)
    eps = Character.identity(5)
    for _ in range(15):
        a = random_character(rng, 5)
        b = random_character(rng, 5)
        c = random_character(rng, 5)
        assert convolve(convolve(a, b), c) == convolve(a, convolve(b, c))
        assert convolve(a, eps) == a and convolve(eps, a) == a
        inv = invert_character(a)
        assert convolve(a, inv) == eps
        assert convolve(inv, a) == eps


def test_invert_character_examples():
    psi = invert_character(Character.basic(6))
    assert psi.on_composition(C((1,))) == -1
    assert psi.on_composition(C((1, 1))) == 2

    eps = Character.identity(6)
    assert invert_character(eps) == eps


def test_inversion_matches_series_inversion():
    rng = random.Random(10)
    for _ in range(20):
        zeta = random_character(rng, 6)
        f = char_to_series(zeta)
        inverse = char_to_series(invert_character(zeta))
        assert inverse == series_inverse(f)
        assert pairwise_series_mul(f, inverse) == NSymSeries.unit(f.degree)


def test_group_homomorphism_random():
    rng = random.Random(11)
    for _ in range(25):
        zeta, psi = random_character(rng, 6), random_character(rng, 6)
        lhs = char_to_series(convolve(zeta, psi))
        rhs = pairwise_series_mul(char_to_series(zeta), char_to_series(psi))
        assert lhs == rhs
        assert in_group_G(lhs)


def random_invertible_series(rng, degree, density) -> NSymSeries:
    coeffs = {C(()): F(rng.randint(1, 5), rng.randint(1, 3))}
    for n in range(1, degree + 1):
        for alpha in compositions_of(n):
            if rng.random() < density:
                coeffs[alpha] = F(rng.randint(-4, 4), rng.randint(1, 3))
    return NSymSeries(degree, coeffs)


def test_series_kernel_matches_pairwise_oracle():
    # dense (every coefficient drawn) and sparse supports, degrees 0..7
    rng = random.Random(16)
    for degree in range(8):
        for density in (1.0, 0.2):
            f = random_invertible_series(rng, degree, density)
            g = random_invertible_series(rng, degree, density)
            assert series_mul(f, g) == pairwise_series_mul(f, g) == cut_series_mul(f, g)
            assert pairwise_series_mul(f, series_inverse(f)) == NSymSeries.unit(degree)


def row_mask(alpha: Composition) -> int:
    """The descent mask under which the kernel's row builder files ``alpha``."""
    n = alpha.weight
    _, nums, comps = _rows({alpha: F(1)}, n)[n]
    (mask,) = nums
    assert comps[mask] is alpha
    return mask


def test_descent_mask_bit_rule():
    for n in range(9):
        masks = {}
        for alpha in compositions_of(n):
            mask = row_mask(alpha)
            # bit j - 1 marks a part ending at j < n: decoding the cuts gives alpha back
            ends = [j for j in range(1, n) if mask >> (j - 1) & 1] + [n] * (n > 0)
            assert tuple(b - a for a, b in zip([0] + ends, ends)) == alpha
            masks[mask] = alpha
        assert sorted(masks) == list(range(2 ** (n - 1) if n else 1))
    for n in range(9):
        for i in range(n + 1):
            for beta in compositions_of(i):
                for gamma in compositions_of(n - i):
                    near = row_mask(beta) | row_mask(gamma) << i
                    if 0 < i < n:
                        assert row_mask(near_concat(beta, gamma)) == near
                        assert row_mask(concat(beta, gamma)) == near | 1 << (i - 1)
                    else:
                        assert row_mask(concat(beta, gamma)) == near


def test_kernel_masks_above_thirty_bits():
    # weight-40 masks reach bit 38; the inverse stays sparse, as no term has weight below 13
    f = NSymSeries(40, {C(()): F(-7, 3), C((13,)): F(1, 2), C((2, 15)): 3, C((20, 5)): F(-1, 4),
                        C((31, 2)): 5, C((1, 38, 1)): F(2, 7)})
    assert max(row_mask(alpha) for alpha in f.coeffs).bit_length() > 30
    square = series_mul(f, f)
    assert square == pairwise_series_mul(f, f)
    assert max(row_mask(alpha) for alpha in square.coeffs).bit_length() > 30
    inverse = series_inverse(f)
    assert series_mul(f, inverse) == NSymSeries.unit(40) == pairwise_series_mul(inverse, f)


def test_kernel_outputs_are_keyed_by_composition():
    # a plain tuple key would compare and hash equal, but print differently in messages
    rng = random.Random(20)
    for degree in (1, 4, 6):
        plain = {tuple(a): v for a, v in random_invertible_series(rng, degree, 0.6).coeffs.items()}
        f = NSymSeries(degree, plain)
        g = random_invertible_series(rng, degree, 0.3)
        zeta, psi = random_character(rng, degree), Character.basic(degree)
        for out in (series_mul(f, g), series_inverse(f), char_to_series(zeta)):
            assert {type(k) for k in out.coeffs} <= {Composition}
        for out in (convolve(zeta, psi), invert_character(zeta), convolve(psi, psi)):
            assert {type(k) for k in out.values} <= {Composition}


def test_sparse_square_at_degree_30():
    # 2^29 compositions of the top weight, but only 9 pairs of input terms
    f = NSymSeries(30, {C(()): 1, C((1,)): F(1, 2), C((29,)): 3})
    expected = NSymSeries(30, {
        C(()): 1, C((1,)): 1, C((1, 1)): F(1, 4), C((2,)): F(1, 4), C((29,)): 6,
        C((1, 29)): F(3, 2), C((29, 1)): F(3, 2), C((30,)): 3,
    })
    assert series_mul(f, f) == expected == pairwise_series_mul(f, f)


def test_inverse_term_bound():
    # a (1) term makes the inverse dense, 2^(n - 1) terms at weight n: 2^16 through degree 16
    assert len(series_inverse(NSymSeries(16, {C(()): 1, C((1,)): F(1, 2)})).coeffs) == 2 ** 16
    message = r"^inverse bound exceeded: 131072 terms by weight 17 > 65536$"
    start = time.perf_counter()
    with pytest.raises(ValueError, match=message):
        series_inverse(NSymSeries(30, {C(()): 1, C((1,)): F(1, 2), C((29,)): 3}))
    assert time.perf_counter() - start < 2
    with pytest.raises(ValueError, match=message):
        invert_character(Character.basic(30))


def test_convolve_skips_terms_above_the_degree():
    # the generator (10^12 - 1, 1) lies far above degree 3; its mask would take 10^12 bits
    heavy, basic = Character(10**12, {(10**12 - 1, 1): 1}), Character.basic(3)
    assert convolve(heavy, basic) == convolve(Character.identity(3), basic)
    assert convolve(basic, heavy) == convolve(basic, Character.identity(3))


def assert_normalized(values):
    # every stored value is a nonzero Fraction in lowest terms
    for v in values.values():
        assert type(v) is Fraction and v != 0
        assert v.denominator > 0 and gcd(v.numerator, v.denominator) == 1


def check_series_kernel(f: NSymSeries, g: NSymSeries) -> None:
    product = series_mul(f, g)
    assert product == pairwise_series_mul(f, g) == cut_series_mul(f, g)
    assert_normalized(product.coeffs)
    if f.coefficient(C(())):
        inverse = series_inverse(f)
        assert pairwise_series_mul(f, inverse) == NSymSeries.unit(f.degree)
        assert pairwise_series_mul(inverse, f) == NSymSeries.unit(f.degree)
        assert_normalized(inverse.coeffs)


def check_character_kernel(zeta: Character, psi: Character) -> None:
    conv, inv = convolve(zeta, psi), invert_character(zeta)
    for n in range(zeta.degree + 1):
        for alpha in compositions_of(n):
            assert conv.on_composition(alpha) == convolve_value(zeta, psi, alpha)
            assert convolve_value(zeta, inv, alpha) == (1 if n == 0 else 0)
    assert_normalized(conv.values)
    assert_normalized(inv.values)


def test_kernel_negative_constant_term():
    rng = random.Random(17)
    for degree in (1, 4, 6):
        f = NSymSeries(degree, {**random_invertible_series(rng, degree, 0.5).coeffs, C(()): F(-7, 3)})
        check_series_kernel(f, random_invertible_series(rng, degree, 0.5))
        check_series_kernel(NSymSeries(degree, {C(()): F(-7, 3), C((1,)): F(2, 5)}), f)


def test_kernel_large_coefficients_with_coprime_denominators():
    # numerators near 10^12; weight n draws its denominators from a prime of its own
    rng = random.Random(18)
    primes = (2, 3, 5, 7, 11, 13, 17)
    for density in (1.0, 0.3):
        coeffs = [{}, {}]
        for n in range(7):
            for alpha in compositions_of(n):
                for side in coeffs:
                    if n == 0 or rng.random() < density:
                        sign = rng.choice((1, -1))
                        side[alpha] = F(sign * rng.randint(10 ** 11, 10 ** 12), primes[n] ** rng.randint(0, 2))
        check_series_kernel(NSymSeries(6, coeffs[0]), NSymSeries(6, coeffs[1]))
        zeta, psi = (Character(6, {a: v for a, v in side.items() if is_generator(a)}) for side in coeffs)
        check_character_kernel(zeta, psi)


def test_kernel_drops_a_row_that_cancels():
    # (1 + R(1)) (1 - R(1)) has no weight-1 term: the whole row cancels
    r1 = NSymSeries(4, {C((1,)): F(3, 7)})
    f, g = NSymSeries.unit(4) + r1, NSymSeries.unit(4) - r1
    product = series_mul(f, g)
    assert not [alpha for alpha in product.coeffs if alpha.weight == 1]
    assert product.coeffs[C((2,))] == F(-9, 49)
    check_series_kernel(f, g)
    # zeta * zeta^-1 cancels every row above weight 0
    zeta = random_character(random.Random(19), 5)
    assert convolve(zeta, invert_character(zeta)).values == {}


def test_kernel_degree_zero_and_constant_only():
    for degree in (0, 5):
        const = NSymSeries(degree, {C(()): F(-7, 3)})
        check_series_kernel(const, const)
        assert series_inverse(const) == NSymSeries(degree, {C(()): F(-3, 7)})
        assert series_mul(const, const) == NSymSeries(degree, {C(()): F(49, 9)})
        check_series_kernel(NSymSeries(degree, {}), const)
    eps = Character.identity(0)
    assert convolve(eps, eps) == eps == invert_character(eps)
    assert char_to_series(eps) == NSymSeries.unit(0)
    check_character_kernel(Character.basic(5), Character.identity(5))


def test_G_closure():
    rng = random.Random(12)
    for _ in range(20):
        f, g = random_group_series(rng), random_group_series(rng)
        assert in_group_G(series_mul(f, g))
        assert in_group_G(series_inverse(f))


def test_character_validation():
    with pytest.raises(ValueError, match="generator"):
        Character(6, {C((3,)): F(1)})
    with pytest.raises(ValueError, match="degree"):
        Character(2, {C((1, 1, 1)): F(1)})
    with pytest.raises(ValueError, match="degree"):
        Character(2, {}).on_composition(C((3,)))
    for degree in ("4", -1, True, 2.0):
        with pytest.raises(ValueError, match="nonnegative integer"):
            Character(degree, {})
        with pytest.raises(ValueError, match="nonnegative integer"):
            NSymSeries(degree, {})
    # plain tuple keys are coerced to compositions, and bad ones are refused
    assert NSymSeries(3, {(1, 2): 1}) == NSymSeries(3, {C((1, 2)): 1})
    assert Character(3, {(1, 2): 1}) == Character(3, {C((1, 2)): 1})
    for make in (NSymSeries, Character):
        with pytest.raises(ValueError, match="positive"):
            make(3, {(0, 1): 1})
        with pytest.raises(ValueError, match="integers"):
            make(3, {(1.5, 1.5): 1})
    # each single fault has one message; a zero value does not hide a bad key
    cases = [
        (NSymSeries, 2, {(1, 2): 1}, "coefficient on [1, 2] exceeds truncation degree 2"),
        (Character, 2, {(1, 1, 1): 1}, "generator [1, 1, 1] exceeds truncation degree 2"),
        (NSymSeries, 2, {(1, 2): 0}, "coefficient on [1, 2] exceeds truncation degree 2"),
        (Character, 4, {(3,): F(1)}, "[3] is not a generator; one-part values are derived"),
        (Character, 4, {(3,): 0}, "[3] is not a generator; one-part values are derived"),
        (Character, 4, {(): 1}, "[] is not a generator; one-part values are derived"),
    ]
    for make in (NSymSeries, Character):
        cases += [
            (make, -1, {}, "truncation degree must be a nonnegative integer, got -1"),
            (make, "4", {(1,): 1}, "truncation degree must be a nonnegative integer, got '4'"),
            (make, 3, {(0, 1): 0}, "composition parts must be positive, got (0, 1)"),
            (make, 3, {"ab": 1}, "composition parts must be integers, got 'ab'"),
            (make, 3, {5: 1}, "composition parts must be integers, got 5"),
        ]
    for make, degree, coeffs, message in cases:
        with pytest.raises(ValueError) as info:
            make(degree, coeffs)
        assert str(info.value) == message, (make, degree, coeffs)
    # lookups coerce plain tuples the same way, and refuse a non-composition
    basic, f = Character.basic(3), NSymSeries(3, {(1, 2): F(1, 2)})
    assert basic.on_composition((1, 2)) == 0 and basic.on_composition((3,)) == 1
    assert basic.on_composition(()) == 1 and f.coefficient((1, 2)) == F(1, 2)
    for lookup in (basic.on_composition, f.coefficient):
        with pytest.raises(ValueError, match="positive"):
            lookup((0, 1))
        with pytest.raises(ValueError, match="integers"):
            lookup((1.5,))


def test_series_json_roundtrip():
    rng = random.Random(14)
    f = random_group_series(rng, 4)
    assert NSymSeries.from_json(f.to_json()) == f


def test_character_json_roundtrip():
    zeta = random_character(random.Random(15), 4)
    assert Character.from_json(zeta.to_json()) == zeta

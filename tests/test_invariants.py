import random
from fractions import Fraction
from math import factorial, prod

import pytest
from hypothesis import given, strategies as st

from orbitopes import geometry
from orbitopes.compositions import Composition, compositions_of, multinomial
from orbitopes.hopf_algebra import antipode, inject
from orbitopes.hopf_monoid import OrbitClassElement, class_of, delta, mu
from orbitopes.invariants import (
    CHI_MAX_WEIGHT,
    BinomialPolynomial,
    chi,
    chi_bruteforce,
    chi_bruteforce_element,
    to_monomial,
)
from oracles import binom_frac, eval_monomial, refinement_chi, set_partitions, walk_chi

C = Composition
F = Fraction


def value(p: BinomialPolynomial, t) -> Fraction:
    """p at t, summing each coefficient times binom(t, k) from the oracle."""
    return sum((c * binom_frac(t, k) for k, c in p.coeffs.items()), F(0))


def test_chi_examples():
    assert chi(C((1, 2, 1))) == BinomialPolynomial({3: F(12), 4: F(24)})
    assert chi(C((1, 1))) == BinomialPolynomial({2: F(2)})
    assert to_monomial(chi(C((1, 1)))) == [F(0), F(-1), F(1)]  # t^2 - t
    assert chi(C(())) == BinomialPolynomial({0: F(1)})


def test_chi_of_one_part_is_power_of_t():
    for n in range(7):
        mono = to_monomial(chi(C((n,)) if n else C(())))
        expected = [F(0)] * n + [F(1)]
        assert mono == expected


def test_chi_of_all_ones_is_falling_factorial():
    for n in range(7):
        alpha = C((1,) * n)
        assert chi(alpha) == BinomialPolynomial({n: F(factorial(n))} if n else {0: F(1)})


def test_chi_bruteforce_examples():
    assert chi_bruteforce(C((1, 1))) == BinomialPolynomial({2: F(2)})
    got = chi_bruteforce(C((2,)))
    assert got == BinomialPolynomial({1: F(1), 2: F(2)})
    assert value(got, 3) == 9  # t^2 at t=3
    assert chi_bruteforce(C((1, 2, 1))) == chi(C((1, 2, 1)))


def test_chi_bruteforce_bound(monkeypatch):
    with pytest.raises(ValueError, match="brute-force bound"):
        chi_bruteforce(C((9,)))
    monkeypatch.setattr(geometry, "BRUTE_FORCE_BOUND", 1)
    with pytest.raises(ValueError, match="ground set of size 2 > 1"):
        chi_bruteforce(C((1, 1)))


def test_chi_bruteforce_matches_closed_form_through_the_bound():
    alphas = [alpha for n in range(9) for alpha in compositions_of(n)]
    assert len(alphas) == 256
    for alpha in alphas:
        assert chi_bruteforce(alpha) == chi(alpha), alpha


def test_chi_bruteforce_matches_the_walk_on_single_classes():
    for n in range(7):
        for alpha in compositions_of(n):
            x = class_of(alpha, [str(i) for i in range(1, n + 1)])
            assert chi_bruteforce_element(x) == walk_chi(x), alpha


def test_chi_bruteforce_matches_the_walk_on_products():
    # two blocks may carry the same composition, and a one-part block of
    # weight >= 2 canonicalizes to singletons
    rng = random.Random(11)
    one_part_blocks = 0
    for _ in range(100):
        n = rng.randint(2, 6)
        labels = rng.sample([f"{c}{i}" for c in "abxy" for i in range(1, 9)], n)
        partitions = list(set_partitions(labels))
        blocks = []
        for block in rng.choice(partitions):
            comp = rng.choice(compositions_of(len(block)))
            one_part_blocks += len(comp) == 1 and len(block) >= 2
            blocks.append((block, comp))
        x = OrbitClassElement(labels, blocks)
        assert chi_bruteforce_element(x) == walk_chi(x), x
    assert one_part_blocks >= 10


def test_chi_bruteforce_split_count(monkeypatch):
    # one tail shape per remaining weight: sum over m = 1..n of 2^m - 1 splits
    calls = 0

    def counting_delta(x, S):
        nonlocal calls
        calls += 1
        return delta(x, S)

    monkeypatch.setattr("orbitopes.invariants.delta", counting_delta)
    for n in range(1, 8):
        for alpha in compositions_of(n):
            calls = 0
            chi_bruteforce(alpha)
            assert calls == 2 ** (n + 1) - n - 2, alpha


def test_chi_matches_refinement_sum():
    for n in range(12):
        for alpha in compositions_of(n):
            assert chi(alpha) == refinement_chi(alpha), alpha


def test_chi_bound():
    assert to_monomial(chi(C((CHI_MAX_WEIGHT,)))) == [F(0)] * CHI_MAX_WEIGHT + [F(1)]
    with pytest.raises(ValueError, match=f"chi bound exceeded: weight {CHI_MAX_WEIGHT + 1} > {CHI_MAX_WEIGHT}"):
        chi(C((CHI_MAX_WEIGHT - 1, 2)))


def test_to_monomial_of_chi_matches_pointwise_evaluation():
    # a polynomial of degree d is fixed by its values at t = 0..d; also on random binomial-basis inputs
    rng = random.Random(5)
    cases = [C((n,)) for n in (1, 12, 30)] + [C((1,) * 30), C((4, 4, 5, 5))]
    for n in range(1, 31):
        parts = sorted(rng.sample(range(1, n), rng.randint(0, min(n - 1, 5))))
        cases.append(C(b - a for a, b in zip([0, *parts], [*parts, n])))
    # chi(alpha) has degree |alpha|
    pairs = [(chi(alpha), alpha.weight) for alpha in cases]
    # mixed denominators, some sharing factors with k!, and gaps in k
    for _ in range(40):
        ks = rng.sample(range(16), rng.randint(0, 8))
        coeffs = {k: F(rng.randint(-60, 60), rng.choice([1, 2, 3, 4, 9, 35, 720])) for k in ks}
        pairs.append((BinomialPolynomial(coeffs), max((k for k, c in coeffs.items() if c), default=0)))
    for p, d in pairs:
        mono = to_monomial(p)
        assert len(mono) == d + 1, p
        for t in range(d + 1):
            assert eval_monomial(mono, t) == value(p, t), (p, t)


def test_chi_multiplicative_over_products():
    # brute force on the merged ground set vs product of blockwise closed forms
    cases = [
        (C((2,)), C((1, 1))),
        (C((1,)), C((2, 1))),
        (C((1, 1)), C((1, 1, 1))),
        (C((3,)), C((1, 1))),
    ]
    for alpha, beta in cases:
        x = class_of(alpha, [f"a{i}" for i in range(alpha.weight)])
        y = class_of(beta, [f"b{i}" for i in range(beta.weight)])
        merged = mu(x, y)
        got = chi_bruteforce_element(merged)
        # both sides have degree |alpha| + |beta|, so agreeing at that many + 1 points makes them equal
        for t in range(alpha.weight + beta.weight + 1):
            assert value(got, t) == value(chi(alpha), t) * value(chi(beta), t), (alpha, beta, t)


def test_chi_at_minus_one_counts_vertices():
    # (-1)^n chi(alpha)(-1) = n!/prod(a_i!), the vertex count of O(alpha)
    for n in range(8):
        for alpha in compositions_of(n):
            assert value(chi(alpha), -1) == (-1) ** n * multinomial(n, alpha), alpha


def test_chi_of_antipode_is_chi_at_minus_t():
    # reciprocity of polynomial invariants (Aguiar-Ardila): chi(S(x))(t) = chi(x)(-t)
    alphas = [alpha for n in range(8) for alpha in compositions_of(n)]
    assert len(alphas) == 128
    at = {(alpha, t): value(chi(alpha), t) for alpha in alphas for t in range(-3, 4)}
    for alpha in alphas:
        s = antipode(inject(alpha))
        for t in range(-3, 4):
            got = sum(v * prod(at[beta, t] for beta in gm) for gm, v in s.coeffs.items())
            assert got == at[alpha, -t], (alpha, t)


def test_evaluation_consistency_both_bases():
    for n in range(6):
        for alpha in compositions_of(n):
            p = chi(alpha)
            mono = to_monomial(p)
            for t in range(7):
                assert value(p, t) == eval_monomial(mono, t)


def test_to_monomial_examples():
    assert to_monomial(BinomialPolynomial({2: F(2)})) == [F(0), F(-1), F(1)]
    assert to_monomial(BinomialPolynomial({1: F(1)})) == [F(0), F(1)]
    p = BinomialPolynomial({3: F(12), 4: F(24)})
    mono = to_monomial(p)
    # cross-check by pointwise evaluation rather than trusting the expansion
    for t in range(6):
        assert eval_monomial(mono, t) == 12 * binom_frac(t, 3) + 24 * binom_frac(t, 4)
    # sparse and dense expansions up to degree 60, each fixed by its values at t = 0..degree
    rng = random.Random(17)
    dense = {k: F(rng.randint(-9, 9), rng.randint(1, 5)) for k in range(60)} | {60: F(1, 7)}
    for p in [BinomialPolynomial({40: F(1)}), BinomialPolynomial({0: F(3), 7: F(-2, 3)}),
              BinomialPolynomial(dense)]:
        mono = to_monomial(p)
        assert len(mono) == p.degree + 1
        for t in range(p.degree + 1):
            assert eval_monomial(mono, t) == value(p, t), t


@given(st.dictionaries(st.integers(0, 5), st.fractions(min_value=-4, max_value=4, max_denominator=3), max_size=4),
       st.dictionaries(st.integers(0, 5), st.fractions(min_value=-4, max_value=4, max_denominator=3), max_size=4))
def test_polynomial_ring_operations_agree_with_evaluation(c1, c2):
    p, q = BinomialPolynomial(c1), BinomialPolynomial(c2)
    for t in range(8):
        assert value(p + q, t) == value(p, t) + value(q, t)
        assert value(p - q, t) == value(p, t) - value(q, t)
        assert eval_monomial(to_monomial(p), t) == value(p, t)


def test_binomial_polynomial_validation_and_json():
    with pytest.raises(ValueError):
        BinomialPolynomial({-1: F(1)})
    with pytest.raises(ValueError, match="integers"):
        BinomialPolynomial({2.7: 1})
    p = BinomialPolynomial({0: F(1, 2), 3: F(4)})
    data = p.to_json(monomial=True)
    assert data["binomial"] == {"0": "1/2", "3": "4"}
    assert len(data["monomial"]) == 4

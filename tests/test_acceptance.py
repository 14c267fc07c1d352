"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
report.  Every comparison is exact (rational or integer equality); the
stated wall-clock budgets are asserted too.
"""

import random
import time
from contextlib import contextmanager
from fractions import Fraction
from itertools import permutations, product
from math import factorial

from orbitopes.characters import (
    NSymSeries,
    char_to_series,
    convolve,
    in_group_G,
    invert_character,
    series_inverse,
)
from orbitopes.compositions import Composition
from orbitopes.geometry import (
    Point,
    chamber_census,
    check_base_polytope,
    composition_of_point,
    max_face_vertices,
    orbit_vertices,
    standard_ground,
)
from orbitopes.hopf_algebra import (
    EMPTY_MULTISET,
    HopfElement,
    TensorElement,
    antipode,
    coproduct,
    coproduct_in_slot,
    counit,
    product as halg_product,
    inject,
)
from orbitopes.hopf_monoid import count_structures
from orbitopes.invariants import BinomialPolynomial, chi, to_monomial
from orbitopes.selftest import egf_counts, random_character, random_point, suite_chi, suite_delta_geometry
from oracles import apply_antipode_slot, gm, multiply_slots, pairwise_series_mul, partition_multisets

C = Composition
F = Fraction


@contextmanager
def criterion(number, budget_seconds, description):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number}: FAIL - {description}")
        raise
    elapsed = time.perf_counter() - start
    assert elapsed < budget_seconds, (
        f"criterion {number} exceeded its {budget_seconds}s budget: {elapsed:.3f}s"
    )
    print(f"ACCEPTANCE {number}: PASS ({elapsed * 1000:.2f} ms) - {description}")


def _best_of(fn, repeats=3):
    best = None
    for _ in range(repeats):
        start = time.perf_counter()
        result = fn()
        elapsed = time.perf_counter() - start
        best = elapsed if best is None else min(best, elapsed)
    return result, best


def test_criterion_1_coproduct_of_1_2_1():
    expected = TensorElement({
        (EMPTY_MULTISET, gm((1, 2, 1))): F(1),
        (gm((1,)), gm((2, 1))): F(4),
        (gm((1, 1)), gm((1, 1))): F(6),
        (gm((1, 2)), gm((1,))): F(4),
        (gm((1, 2, 1)), EMPTY_MULTISET): F(1),
    })
    x = inject(C((1, 2, 1)))
    coproduct(x)  # warm the caches; the budget measures the operation
    with criterion(1, 0.001, "coproduct of (1,2,1) has the five terms 1,4,6,4,1"):
        got, elapsed = _best_of(lambda: coproduct(x))
        assert got == expected
        assert len(got.coeffs) == 5
        assert elapsed < 0.001


def test_criterion_2_classification_example():
    p = Point.from_values(standard_ground(8), [F(v) for v in (1, 3, 1, 6, 6, 0, 2, 1)])
    composition_of_point(p)
    with criterion(2, 0.001, "point (1,3,1,6,6,0,2,1) classifies to (2,1,1,3,1)"):
        got, elapsed = _best_of(lambda: composition_of_point(p))
        assert got == C((2, 1, 1, 3, 1))
        assert elapsed < 0.001


def test_criterion_3_max_face_example():
    ground = standard_ground(4)
    p = Point.from_values(ground, [F(2), F(2), F(1), F(0)])
    y = dict(zip(ground, [F(1), F(0), F(1), F(1)]))
    expected = {
        Point.from_values(ground, [F(1), F(0), F(2), F(2)]),
        Point.from_values(ground, [F(2), F(0), F(1), F(2)]),
        Point.from_values(ground, [F(2), F(0), F(2), F(1)]),
    }
    max_face_vertices(p, y)
    with criterion(3, 0.001, "y-maximal face of O(2,2,1,0) is the expected triangle"):
        got, elapsed = _best_of(lambda: max_face_vertices(p, y))
        assert got == expected
        assert elapsed < 0.001


def test_criterion_4_species_counts():
    with criterion(4, 1.0, "structure counts match 1,1,2,7,29,136 and the EGF to n=8"):
        assert [count_structures(n) for n in range(6)] == [1, 1, 2, 7, 29, 136]
        assert [count_structures(n) for n in range(9)] == egf_counts(8)


def test_criterion_5_delta_agrees_with_geometry():
    with criterion(5, 30.0, "composition splits equal vertex-level face decompositions, n <= 6"):
        assert suite_delta_geometry(6) == {"passed": 2731, "failed": 0}


def test_criterion_6_hopf_axioms_degree_6():
    with criterion(6, 30.0, "coassociativity, morphism, counit, antipode on basis degree <= 6"):
        basis = partition_multisets(6)
        unit = HopfElement.unit()
        for b in basis:
            x = HopfElement.basis(b)
            cp = coproduct(x)
            # coassociativity
            assert coproduct_in_slot(cp, 0) == coproduct_in_slot(cp, 1)
            # counit laws
            left = HopfElement()
            right = HopfElement()
            for (u, v), coeff in cp.coeffs.items():
                left = left + coeff * counit(HopfElement.basis(u)) * HopfElement.basis(v)
                right = right + coeff * counit(HopfElement.basis(v)) * HopfElement.basis(u)
            assert left == x and right == x
            # antipode identity, both sides
            expected = counit(x) * unit
            assert multiply_slots(apply_antipode_slot(cp, 0)) == expected
            assert multiply_slots(apply_antipode_slot(cp, 1)) == expected
        # algebra-morphism property over basis pairs within the degree window
        for b1 in basis:
            for b2 in basis:
                if b1.degree + b2.degree > 6:
                    continue
                x, y = HopfElement.basis(b1), HopfElement.basis(b2)
                assert coproduct(halg_product(x, y)) == coproduct(x) * coproduct(y)


def test_criterion_7_character_isomorphism():
    rng = random.Random(2024)
    with criterion(7, 10.0, "F(conv) = F*F, image in G, inversion matches, 50 random pairs"):
        for _ in range(50):
            zeta = random_character(rng, 6)
            psi = random_character(rng, 6)
            f_zeta = char_to_series(zeta)
            f_psi = char_to_series(psi)
            assert char_to_series(convolve(zeta, psi)) == pairwise_series_mul(f_zeta, f_psi)
            assert in_group_G(f_zeta) and in_group_G(f_psi)
            inverse = char_to_series(invert_character(zeta))
            assert inverse == series_inverse(f_zeta)
            assert pairwise_series_mul(f_zeta, inverse) == NSymSeries.unit(f_zeta.degree)


def test_criterion_8_polynomial_invariant():
    with criterion(8, 60.0, "chi equals its ordered-partition recount, and the closed forms"):
        assert suite_chi(6) == {"passed": 64, "failed": 0}
        for n in range(1, 7):
            assert to_monomial(chi(C((n,)))) == [F(0)] * n + [F(1)]
            assert chi(C((1,) * n)) == BinomialPolynomial({n: F(factorial(n))})


def _orders_of_vertex(v):
    # total orders whose chamber contains v: permute within each level set
    levels = {}
    for label, value in zip(v.ground, v.values):
        levels.setdefault(value, []).append(label)
    blocks = [levels[val] for val in sorted(levels, reverse=True)]
    for arrangement in product(*(permutations(b) for b in blocks)):
        yield sum(arrangement, ())


def test_criterion_9_chambers_and_base_polytopes():
    rng = random.Random(777)
    with criterion(9, 30.0, "one vertex per chamber and tight half-spaces, 100 random points"):
        for _ in range(100):
            p = random_point(rng, rng.randint(1, 6))
            census = chamber_census(p)
            assert len(census) == factorial(len(p.ground))
            owner = {}
            for v in orbit_vertices(p):
                for order in _orders_of_vertex(v):
                    assert order not in owner  # no chamber holds two vertices
                    owner[order] = v
            assert owner.keys() == census.keys()  # every chamber holds one
            for order, v in census.items():
                assert owner[order] == v
            assert check_base_polytope(p)

"""Built-in oracle-equivalence suites, runnable from the CLI.

Each suite pits a combinatorial formula against an independent geometric
or enumerative computation, yields one bool per case, and returns its
``{"passed": p, "failed": f}`` tally.  A suite that raises reports the
error and counts it as one failed case; the other suites still run.
Randomized suites use a fixed seed so runs are reproducible.  The test
suite asserts these same suites and draws its random points and
characters from ``random_point`` and ``random_character``.
"""

from __future__ import annotations

import random
from fractions import Fraction
from functools import wraps
from math import comb
from typing import Callable, Iterator

from . import geometry
from .characters import Character, char_to_series, convolve, in_group_G
from .compositions import _integer, compositions_of, concat, is_generator, near_concat, splits
from .geometry import (
    Point,
    chamber_census,
    check_base_polytope,
    composition_of_point,
    face_decomposition,
    normally_equivalent,
    orbit_vertices,
    representative_point,
    standard_ground,
    subsets,
)
from .hopf_algebra import coproduct, inject
from .hopf_monoid import class_of, count_structures, delta
from .invariants import chi, chi_bruteforce

SEED = 20230817


def egf_counts(max_n: int) -> list[int]:
    """Coefficients a(n) = n! [t^n] exp(B) for n = 0..max_n, B = e^(2t)/2 - e^t + t + 1/2.

    A = exp(B) solves A' = B'A, so a(n) = sum over k = 1..n of C(n - 1, k - 1) b(k) a(n - k),
    where b(k) = k! [t^k] B = 2^(k - 1) - 1 + [k = 1] counts the classes on a block of k
    labels.  All in integers.
    """
    max_n = _integer(max_n, "max_n")
    if max_n < 0:
        raise ValueError("max_n must be nonnegative")
    b = [0, 1] + [2 ** (k - 1) - 1 for k in range(2, max_n + 1)]
    a = [1]
    for n in range(1, max_n + 1):
        a.append(sum(comb(n - 1, k - 1) * b[k] * a[n - k] for k in range(1, n + 1)))
    return a


def random_point(rng: random.Random, n: int) -> Point:
    """A point on labels 1..n with coordinates p/q, p in -9..9 and q in 1..4."""
    ground = standard_ground(n)
    values = [Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(n)]
    return Point.from_values(ground, values)


def random_character(rng: random.Random, degree: int) -> Character:
    """A character with a value p/q, p in -6..6 and q in 1..3, on every generator."""
    values = {}
    for n in range(1, degree + 1):
        for alpha in compositions_of(n):
            if is_generator(alpha):
                values[alpha] = Fraction(rng.randint(-6, 6), rng.randint(1, 3))
    return Character(degree, values)


def _tally(suite: Callable[..., Iterator[bool]]) -> Callable[..., dict]:
    """Run a suite that yields one bool per case; return its passed and failed counts.

    A case that raises ends the suite: it counts as one failure, and the
    entry gains ``"error": "<ExceptionType>: <message>"``.
    """

    @wraps(suite)
    def run(*args) -> dict:
        entry = {"passed": 0, "failed": 0}
        try:
            for ok in suite(*args):
                entry["passed" if ok else "failed"] += 1
        except Exception as exc:
            entry["failed"] += 1
            entry["error"] = f"{type(exc).__name__}: {exc}"
        return entry

    return run


@_tally
def suite_splits(max_n: int) -> Iterator[bool]:
    """splits() entries reassemble to the source and are pairwise exclusive cuts."""
    for n in range(max_n + 1):
        for alpha in compositions_of(n):
            for i, (beta, gamma) in enumerate(splits(alpha)):
                ok = beta.weight == i
                if beta and gamma:
                    yield ok and (concat(beta, gamma) == alpha) != (near_concat(beta, gamma) == alpha)
                else:
                    yield ok and concat(beta, gamma) == alpha


@_tally
def suite_delta_geometry(max_n: int) -> Iterator[bool]:
    """Composition-level splits match vertex-level face decompositions."""
    for n in range(max_n + 1):
        ground = standard_ground(n)
        for alpha in compositions_of(n):
            x = class_of(alpha, ground)
            p = representative_point(alpha, ground)
            for S in subsets(ground):
                left, right = delta(x, S)
                q, q_prime = face_decomposition(p, S)
                yield left == class_of(composition_of_point(q), S) and right == class_of(
                    composition_of_point(q_prime), set(ground) - set(S)
                )


@_tally
def suite_chi(max_n: int) -> Iterator[bool]:
    """Closed-form invariant (surjection rows) equals the ordered-set-partition recount."""
    for n in range(max_n + 1):
        for alpha in compositions_of(n):
            yield chi(alpha) == chi_bruteforce(alpha)


@_tally
def suite_normal_equivalence(max_n: int) -> Iterator[bool]:
    """normally_equivalent iff equal chamber-to-vertex partitions of the orbit."""
    for n in range(1, max_n + 1):
        ground = standard_ground(n)
        points = [representative_point(alpha, ground) for alpha in compositions_of(n)]
        prints = [_chamber_fingerprint(p) for p in points]
        for p, p_print in zip(points, prints):
            for q, q_print in zip(points, prints):
                yield normally_equivalent(p, q) == (p_print == q_print)


def _chamber_fingerprint(p: Point) -> frozenset:
    return frozenset(frozenset(orders) for orders in _group_census(chamber_census(p)).values())


@_tally
def suite_base_polytope(count: int, max_n: int) -> Iterator[bool]:
    """Half-space description is valid and tight on random rational points."""
    rng = random.Random(SEED)
    for _ in range(count):
        yield check_base_polytope(random_point(rng, rng.randint(1, max_n)))


@_tally
def suite_chamber_census(count: int, max_n: int) -> Iterator[bool]:
    """Each chamber holds exactly one orbit vertex."""
    rng = random.Random(SEED + 1)
    for _ in range(count):
        p = random_point(rng, rng.randint(1, max_n))
        census = chamber_census(p)
        vertices = orbit_vertices(p)
        ok = set(census.values()) == vertices
        for order, vertex in census.items():
            vals = [vertex[l] for l in order]
            ok = ok and all(a >= b for a, b in zip(vals, vals[1:]))
        # grouping the n! chambers by vertex partitions them with no overlap
        total = sum(len(orders) for orders in _group_census(census).values())
        yield ok and total == len(census)


def _group_census(census) -> dict:
    grouped: dict[Point, set] = {}
    for order, vertex in census.items():
        grouped.setdefault(vertex, set()).add(order)
    return grouped


@_tally
def suite_species(max_n: int) -> Iterator[bool]:
    """Structure counts match the generating-function expansion."""
    expected = egf_counts(max_n)
    for n in range(max_n + 1):
        yield count_structures(n) == expected[n]


def _on_multiset(zeta: Character, gm) -> Fraction:
    value = Fraction(1)
    for alpha in gm:
        value *= zeta.on_composition(alpha)
    return value


@_tally
def suite_characters(count: int, degree: int) -> Iterator[bool]:
    """Convolution matches its defining formula on the coproduct and lands in the group."""
    rng = random.Random(SEED + 2)
    coproducts = {
        alpha: coproduct(inject(alpha)).coeffs
        for n in range(degree + 1)
        for alpha in compositions_of(n)
    }
    multisets = {gm for terms in coproducts.values() for key in terms for gm in key}
    for _ in range(count):
        zeta = random_character(rng, degree)
        psi = random_character(rng, degree)
        conv = convolve(zeta, psi)
        on_zeta = {gm: _on_multiset(zeta, gm) for gm in multisets}
        on_psi = {gm: _on_multiset(psi, gm) for gm in multisets}
        yield in_group_G(char_to_series(conv)) and all(
            conv.on_composition(alpha)
            == sum(c * on_zeta[left] * on_psi[right] for (left, right), c in terms.items())
            for alpha, terms in coproducts.items()
        )


def run_selftest(max_n: int = 5) -> dict:
    """Run every suite; sizes scale down from ``max_n`` where a suite is costly.

    ``max_n`` must lie in 1..``geometry.BRUTE_FORCE_BOUND``: the splits suite
    and the chi recount (about 1 s at 8) walk every composition up to it.
    """
    max_n = _integer(max_n, "selftest max_n")
    bound = geometry.BRUTE_FORCE_BOUND
    if not 1 <= max_n <= bound:
        raise ValueError(f"selftest max_n must be in the range 1..{bound}, got {max_n}")
    small = min(max_n, 5)
    suites = {
        "splits_reassembly": suite_splits(max_n),
        "delta_vs_geometry": suite_delta_geometry(min(max_n, 6)),
        "chi_vs_bruteforce": suite_chi(max_n),
        "normal_equivalence_oracle": suite_normal_equivalence(min(small, 4)),
        "base_polytope": suite_base_polytope(25, small),
        "chamber_census": suite_chamber_census(25, small),
        "species_counts": suite_species(8),
        "character_isomorphism": suite_characters(10, 5),
    }
    return {
        "suites": suites,
        "passed": sum(entry["passed"] for entry in suites.values()),
        "failed": sum(entry["failed"] for entry in suites.values()),
    }

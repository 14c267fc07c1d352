import pickle
import random
from collections import Counter
from fractions import Fraction
from itertools import chain, combinations_with_replacement, permutations
from math import lcm

import pytest
from hypothesis import given, strategies as st

from orbitopes import geometry
from orbitopes.compositions import Composition, compositions_of, multinomial
from orbitopes.geometry import (
    GroundSet,
    Point,
    _max_subset_sums,
    chamber_census,
    check_base_polytope,
    composition_of_point,
    distinct_permutations,
    face_decomposition,
    max_face_vertices,
    normally_equivalent,
    orbit_vertices,
    representative_point,
    standard_ground,
    vertex_count,
)
from orbitopes.selftest import random_point, suite_normal_equivalence
from oracles import (
    is_cardinality_invariant,
    is_submodular,
    naive_max_face,
    order_first_census,
    permutation_vertices,
    submodular_of_orbit,
    vertex_scan_table,
)

C = Composition
F = Fraction


def pt(*values, labels=None):
    ground = GroundSet(tuple(labels)) if labels else standard_ground(len(values))
    return Point.from_values(ground, [F(v) for v in values])


st_point = st.integers(1, 5).flatmap(
    lambda n: st.lists(
        st.fractions(min_value=-5, max_value=5, max_denominator=4),
        min_size=n, max_size=n,
    ).map(lambda vals: pt(*vals))
)


def test_ground_set_validation():
    with pytest.raises(ValueError, match="distinct"):
        GroundSet(("a", "a"))
    g = GroundSet(("b", "a", "c"))
    assert g.restricted({"a", "c"}) == ("a", "c")
    with pytest.raises(ValueError):
        g.restricted({"z"})


def test_point_validation():
    g = standard_ground(2)
    with pytest.raises(ValueError):
        Point(g, {"1": F(1)})
    for values in ([1, 2, 3], [1], []):
        with pytest.raises(ValueError, match="exactly the ground-set labels"):
            Point.from_values(g, values)
    p = pt(1, 2)
    assert p["2"] == 2
    with pytest.raises(KeyError, match="^'z'$"):
        p["z"]
    assert Point.from_json(p.to_json()) == p


def test_composition_of_point_examples():
    assert composition_of_point(pt(1, 3, 1, 6, 6, 0, 2, 1)) == C((2, 1, 1, 3, 1))
    assert composition_of_point(pt(7, 7, 7, 7)) == C((4,))
    assert composition_of_point(pt(4, 3, 2, 1)) == C((1, 1, 1, 1))
    assert composition_of_point(Point(GroundSet(()), {})) == C(())


@given(st_point, st.randoms())
def test_composition_of_point_permutation_invariant(p, rng):
    values = list(p.values)
    rng.shuffle(values)
    assert composition_of_point(Point.from_values(p.ground, values)) == composition_of_point(p)


def test_orbit_vertices_examples():
    assert orbit_vertices(pt(1, 1, 0)) == {pt(1, 1, 0), pt(1, 0, 1), pt(0, 1, 1)}
    assert len(orbit_vertices(pt(2, 2, 1, 0))) == 12
    assert orbit_vertices(pt(3, 3, 3)) == {pt(3, 3, 3)}


def test_distinct_permutations_matches_itertools():
    multisets = [
        values for n in range(8) for values in combinations_with_replacement(range(3), n)
    ]
    for values in multisets + [(F(1, 2), F(-3), F(1, 2), F(7, 3), F(-3))]:
        out = list(distinct_permutations(values))
        expected = multinomial(C(Counter(values).values()))
        assert len(out) == len(set(out)) == expected
        assert set(out) == set(permutations(values))
    assert list(distinct_permutations([])) == [()]


# pairwise-coprime denominators and a 40-digit numerator
COPRIME = (F(10**40, 7), F(-1, 11), F(3, 13), F(0), F(5, 2))


def test_check_base_polytope_scales_to_integers():
    p = pt(*COPRIME)
    assert check_base_polytope(p)
    assert orbit_vertices(p) == permutation_vertices(p)
    assert check_base_polytope(pt(F(2, 3), F(2, 3), F(2, 3)))
    assert check_base_polytope(Point(GroundSet(()), {}))


def test_chamber_census_shares_one_point_per_vertex():
    for p in (pt(*COPRIME), pt(2, 2, 1, 0), pt(3, 3, 3), pt(1, 1, 0, 0, 0), pt()):
        census = chamber_census(p)
        assert len({id(v) for v in census.values()}) == vertex_count(p)


def _census_oracle_points(kind):
    if kind == "compositions":
        return [
            representative_point(alpha, standard_ground(n))
            for n in range(7) for alpha in compositions_of(n)
        ]
    if kind == "random":
        rng = random.Random(1701)
        return [random_point(rng, rng.randint(0, 7)) for _ in range(50)]
    return [pt(*values) for n in range(9) for values in ([1] * n, range(n))]


@pytest.mark.parametrize("kind", ["compositions", "random", "all_equal_or_distinct"])
def test_vertex_first_census_and_rank_walk_match_the_oracles(kind):
    for p in _census_oracle_points(kind):
        census = chamber_census(p)
        assert census == order_first_census(p), p
        assert len({id(v) for v in census.values()}) == vertex_count(p), p
        assert orbit_vertices(p) == permutation_vertices(p), p


# Fraction(-1) and Fraction(-2) both hash to -2; 2^61 - 1 is the modulus of numeric
# hashes, and a denominator divisible by it takes Fraction.__hash__'s infinity branch
HASH_EDGES = (
    F(-1), F(-2), F(2**61 - 1), F(3 * 2**61 + 5), F(5, 2 * (2**61 - 1)), F(-3, 7), F(-5, 2), F(0),
)


def _hash_edge_cases():
    rng = random.Random(261)
    yield pt(*HASH_EDGES[:6]), dict.fromkeys(standard_ground(6), F(0))
    yield pt(F(-1), F(-2), F(-1), F(-2)), {"1": F(1), "2": F(1), "3": F(0), "4": F(0)}
    for _ in range(40):
        pool = rng.sample(HASH_EDGES, rng.randint(1, 4))
        p = pt(*(rng.choice(pool) for _ in range(rng.randint(0, 6))))
        yield p, {l: F(rng.randint(-1, 1)) for l in p.ground}


def test_vertex_walks_hash_like_their_values():
    assert hash(F(-1)) == hash(F(-2)) and hash(F(2**61 - 1)) == hash(F(0))
    assert hash(F(5, 2 * (2**61 - 1))) == hash(float("inf"))
    for p, y in _hash_edge_cases():
        vertices = orbit_vertices(p)
        face = max_face_vertices(p, y)
        census = chamber_census(p)
        assert len(vertices) == vertex_count(p) and face <= vertices, p
        assert set(census.values()) == vertices, p
        for v in chain(vertices, face, census.values()):
            twin = Point.from_values(v.ground, v.values)
            assert hash(v) == hash((v.ground, v.values)) == hash(twin), v
            assert v == twin, v


def test_vertex_walks_hash_each_distinct_value_once(monkeypatch):
    p = pt(F(1, 2), F(-3), F(1, 2), F(7, 3), F(-3), F(0), F(7, 3), F(5))  # 5 distinct values
    y = dict(zip(p.ground, map(F, [1, 1, 0, 0, 0, 0, -1, -1])))
    calls = []
    fraction_hash = Fraction.__hash__

    def counting_hash(self):
        calls.append(self)
        return fraction_hash(self)

    monkeypatch.setattr(Fraction, "__hash__", counting_hash)
    vertices = orbit_vertices(p)
    walk_calls = len(calls)
    face = max_face_vertices(p, y)
    face_calls = len(calls) - walk_calls
    monkeypatch.undo()
    assert len(vertices) == vertex_count(p) and len(face) == 2 * 12
    assert walk_calls <= 5 and face_calls <= 5, (walk_calls, face_calls)


def test_point_pickles_without_its_cached_hash():
    # the cached hash depends on the process's string hash seed
    v = next(iter(orbit_vertices(pt(F(1, 2), -3))))
    w = pickle.loads(pickle.dumps(v))
    assert w == v and w._hash is None and hash(w) == hash(v)


def test_orbit_vertex_count_matches_multinomial():
    for n in range(1, 8):
        for alpha in compositions_of(n):
            p = representative_point(alpha, standard_ground(n))
            assert vertex_count(p) == multinomial(alpha)
            if n <= 6:
                assert len(orbit_vertices(p)) == multinomial(alpha)


def test_max_face_example_from_worked_case():
    p = pt(2, 2, 1, 0)
    y = dict(zip(p.ground, [F(1), F(0), F(1), F(1)]))
    assert max_face_vertices(p, y) == {pt(1, 0, 2, 2), pt(2, 0, 1, 2), pt(2, 0, 2, 1)}
    # a functional given as a Point reads as its label -> value map
    assert max_face_vertices(p, pt(1, 0, 1, 1)) == max_face_vertices(p, y)
    for other in ({**y, "5": F(0)}, {"1": F(1), "2": F(0), "3": F(1)}, pt(1, 0, 1, 1, labels="abcd")):
        with pytest.raises(ValueError, match="^functional must be defined on exactly the ground-set labels$"):
            max_face_vertices(p, other)


def test_max_face_constant_functional_gives_all_vertices():
    p = pt(2, 1, 1)
    y = {l: F(5) for l in p.ground}
    assert max_face_vertices(p, y) == orbit_vertices(p)


def test_max_face_indicator_singleton():
    p = pt(1, 0, 0)
    y = {"1": F(1), "2": F(0), "3": F(0)}
    assert max_face_vertices(p, y) == {pt(1, 0, 0)}


def test_max_face_matches_naive_argmax():
    # interleaved level sets, so the walk's block order is not the ground order
    cases = [
        (pt(4, 3, 2, 1, 0, 0), [1, 0, 1, 0, 1, 0]),
        (pt(3, 3, 2, 1, 1, 0, F(5, 2)), [0, 2, 1, 0, 2, 1, 0]),
        (pt(1, 2, 3, 4), [-1, 1, -1, 1]),
    ]
    rng = random.Random(7)
    for _ in range(200):
        p = random_point(rng, rng.randint(1, 6))
        cases.append((p, [rng.randint(-3, 3) for _ in p.ground]))
    for p, levels in cases:
        y = dict(zip(p.ground, map(F, levels)))
        assert max_face_vertices(p, y) == naive_max_face(p, y)


def test_submodular_of_orbit_examples():
    z = submodular_of_orbit(pt(2, 1, 0))
    assert z[frozenset("1")] == 2 and z[frozenset("2")] == 2 and z[frozenset("12")] == 3
    assert z[frozenset("123")] == 3 and z[frozenset()] == 0

    z = submodular_of_orbit(pt(5, 5, 5))
    assert len(z) == 8 and all(v == 5 * len(S) for S, v in z.items())

    z = submodular_of_orbit(pt(1, 0, 0, 0))
    assert all(v == 1 for S, v in z.items() if S)

    # z(S) is the largest sum over S at any vertex, which check_base_polytope compares it with
    p = pt(F(3, 2), -1, F(3, 2), 0)
    vertices = orbit_vertices(p)
    for S, v in submodular_of_orbit(p).items():
        assert v == max(sum((q[l] for l in S), F(0)) for q in vertices), S


@given(st_point)
def test_submodular_oracle_properties(p):
    z = submodular_of_orbit(p)
    assert is_submodular(z)
    assert is_cardinality_invariant(z)


def test_check_base_polytope_examples():
    assert check_base_polytope(pt(1, 0))
    assert check_base_polytope(pt(3, 1, 1))
    for n in range(1, 6):
        for alpha in compositions_of(n):
            assert check_base_polytope(representative_point(alpha, standard_ground(n)))


def scaled_like_check(values):
    # as check_base_polytope scales: sorted decreasing, times the lcm of the denominators
    values = sorted(map(F, values), reverse=True)
    scale = lcm(*(v.denominator for v in values))
    return [v.numerator * (scale // v.denominator) for v in values]


def test_max_subset_sums_matches_the_vertex_scan():
    # the table itself: check_base_polytope is True on every valid point, so it cannot show a wrong one
    cases = [v for n in range(7) for v in combinations_with_replacement(range(2, -3, -1), n)]
    cases += [COPRIME, (F(1, 2), F(1, 2), F(-1, 3), F(5, 6)), (F(2, 3),) * 3,
              (F(-7, 4), F(1, 6), F(1, 6), F(0), F(-7, 4), F(9, 10))]
    for values in cases:
        scaled = scaled_like_check(values)
        assert _max_subset_sums(scaled) == vertex_scan_table(scaled), values


def test_check_base_polytope_on_ten_distinct_coordinates(monkeypatch):
    # 10! vertices times 2^10 subsets is out of reach of a per-vertex scan
    monkeypatch.setattr(geometry, "BRUTE_FORCE_BOUND", 10)
    assert check_base_polytope(pt(*(F(k * k - 20, k + 1) for k in range(10))))


def test_check_base_polytope_bound(monkeypatch):
    assert geometry.BRUTE_FORCE_BOUND == 8
    assert check_base_polytope(pt(*range(8)))
    with pytest.raises(ValueError, match="ground set of size 9 > 8"):
        check_base_polytope(pt(*range(9)))
    # each bounded call reads the bound when it runs
    monkeypatch.setattr(geometry, "BRUTE_FORCE_BOUND", 4)
    assert check_base_polytope(pt(*range(4)))
    with pytest.raises(ValueError, match="ground set of size 5 > 4"):
        check_base_polytope(pt(*range(5)))
    monkeypatch.setattr(geometry, "BRUTE_FORCE_BOUND", 3)
    with pytest.raises(ValueError, match="ground set of size 4 > 3"):
        chamber_census(pt(1, 2, 3, 4))
    with pytest.raises(ValueError, match="ground set of size 4 > 3"):
        orbit_vertices(pt(1, 2, 3, 4))


def test_chamber_census_examples():
    census = chamber_census(pt(2, 1, 0))
    assert len(census) == 6
    assert len(set(census.values())) == 6  # bijective for distinct coordinates

    census = chamber_census(pt(1, 1, 0))
    assert len(census) == 6
    hits = {}
    for vertex in census.values():
        hits[vertex] = hits.get(vertex, 0) + 1
    assert set(hits.values()) == {2} and len(hits) == 3

    p = pt(4, 4)
    assert set(chamber_census(p).values()) == {p}


def test_chamber_census_totality_and_preimage_sizes():
    for n in range(1, 6):
        for alpha in compositions_of(n):
            p = representative_point(alpha, standard_ground(n))
            census = chamber_census(p)
            # preimage of each vertex = product of factorials of the multiplicities
            prod_fact = 1
            for part in alpha:
                f = 1
                for i in range(2, part + 1):
                    f *= i
                prod_fact *= f
            hits = {}
            for vertex in census.values():
                hits[vertex] = hits.get(vertex, 0) + 1
            assert set(census.values()) == orbit_vertices(p)
            assert all(count == prod_fact for count in hits.values())


def test_normally_equivalent_examples():
    assert normally_equivalent(pt(1, 1, 0), pt(7, 7, -2))
    assert not normally_equivalent(pt(1, 0, 0), pt(1, 1, 0))
    p = pt(3, 1, 4)
    assert normally_equivalent(p, p)
    with pytest.raises(ValueError, match="equal size"):
        normally_equivalent(pt(1, 0), pt(1, 0, 0))


def test_normally_equivalent_matches_chamber_fingerprints():
    # the partition of chambers by owning vertex determines the normal fan
    assert suite_normal_equivalence(5) == {"passed": 341, "failed": 0}


def test_face_decomposition_examples():
    p = pt(2, 2, 1, 0, labels="abcd")
    q, q_prime = face_decomposition(p, {"a", "c"})
    assert q.ground == ("a", "c") and q.values == (F(2), F(2))
    assert q_prime.ground == ("b", "d") and q_prime.values == (F(1), F(0))

    q, q_prime = face_decomposition(p, set())
    assert len(q.ground) == 0 and q_prime == p

    q, q_prime = face_decomposition(p, set("abcd"))
    assert composition_of_point(q) == composition_of_point(p) and len(q_prime.ground) == 0

    with pytest.raises(ValueError, match=r"^labels \['y', 'z'\] not in ground set$"):
        face_decomposition(p, {"a", "z", "y"})


def test_face_decomposition_matches_max_face_product():
    # the S-maximal face is exactly the product of the two smaller orbits
    rng = random.Random(11)
    for _ in range(60):
        n = rng.randint(1, 5)
        p = pt(*[F(rng.randint(-4, 4)) for _ in range(n)])
        labels = list(p.ground)
        S = {l for l in labels if rng.random() < 0.5}
        indicator = {l: F(1) if l in S else F(0) for l in labels}
        face = max_face_vertices(p, indicator)
        q, q_prime = face_decomposition(p, S)
        assembled = set()
        for v in orbit_vertices(q):
            for w in orbit_vertices(q_prime):
                coords = {l: u[l] for u in (v, w) for l in u.ground}
                assembled.add(Point(p.ground, coords))
        assert face == assembled


def test_representative_point_roundtrip():
    for n in range(7):
        for alpha in compositions_of(n):
            p = representative_point(alpha, standard_ground(n))
            assert composition_of_point(p) == alpha

"""The four seeded workloads: inputs, fixed job lists, output checks.

Each workload builds its inputs from the seed alone, then runs a fixed job
list through a ``worker.Harness``.  The shape of the list (degrees, sizes,
multiplicity patterns, request kinds) is the same for every seed; the seed
chooses values, so a run's cost does not depend on which seed it got.
The lists of char_series, geometry_oracles and cli_requests hold 25, 55
and 25 jobs: with 10k + 5 jobs a repetition, the median and the 90th
percentile of the pooled latencies fall in the middle of one job's
samples instead of on the edge between two jobs of different cost.
Inputs are built without the library's cached functions, so the caches
are empty when the first job starts.

Every check runs after the timed jobs and judges an output without
calling the function that produced it.
"""

from __future__ import annotations

import json
import os
import random
import resource
import shutil
import subprocess
import sys
import time
from fractions import Fraction
from math import comb, factorial
from pathlib import Path

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
)
from orbitopes.compositions import Composition
from orbitopes.geometry import (
    Point,
    chamber_census,
    check_base_polytope,
    max_face_vertices,
    normally_equivalent,
    orbit_vertices,
    standard_ground,
    vertex_count,
)
from orbitopes.hopf_algebra import (
    GeneratorMultiset,
    HopfElement,
    TensorElement,
    antipode,
    coproduct,
    coproduct_in_slot,
    inject,
)
from orbitopes.hopf_monoid import count_structures
from orbitopes.invariants import chi, chi_bruteforce
from orbitopes.selftest import egf_counts

import oracles

ROOT = Path(__file__).resolve().parent.parent
SMALL = (9, 5)  # coefficient heights: |numerator| and denominator bounds
LARGE = (10 ** 12, 1)


def rational(rng: random.Random, height) -> Fraction:
    """A nonzero rational whose numerator lies within a factor of ten of the bound.

    Keeping the magnitude band narrow keeps the cost of exact arithmetic on
    these inputs nearly the same for every seed.
    """
    top, bottom = height
    num = rng.randint(max(1, top // 10), top) * rng.choice((1, -1))
    return Fraction(num, rng.randint(1, bottom))


def generators(degree: int) -> list[tuple[int, ...]]:
    """Generator compositions of weight 1..degree: (1) and every one with two or more parts."""
    return [a for a in oracles.all_compositions(degree) if len(a) >= 2 or a == (1,)]


def random_composition(rng: random.Random, n: int, length: int) -> Composition:
    cuts = sorted(rng.sample(range(1, n), length - 1))
    bounds = [0] + cuts + [n]
    return Composition(b - a for a, b in zip(bounds, bounds[1:]))


class Workload:
    """A seeded input set and its job list; subclasses fill in the four steps."""

    def run(self, h) -> None:
        raise NotImplementedError

    def digest_of(self, job: dict, output):
        raise NotImplementedError

    def check(self, h, digests: list[str]) -> None:
        raise NotImplementedError

    def peak_rss_kb(self) -> int:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    def extra(self, h) -> dict:
        return {}

    def close(self) -> None:
        pass

    def digests(self, h) -> list[str]:
        return [
            "none" if out is None else oracles.digest(self.digest_of(job, out))
            for job, out in zip(h.jobs, h.outputs)
        ]

    @staticmethod
    def judge(h, job_id: int, test) -> None:
        """Run one output check; a False result or an exception fails the job."""
        if h.outputs[job_id] is None:
            return
        try:
            ok = test(h.outputs[job_id])
        except Exception as exc:  # a check that cannot run counts against the job
            h.fail(job_id, f"check raised {type(exc).__name__}")
            return
        if not ok:
            h.fail(job_id, "output check failed")


# --------------------------------------------------------------------------
# char_series


def sparse_support(rng, weights) -> list[Composition]:
    """One random two-part composition per weight; weight 1 gives (1)."""
    return [Composition((1,)) if w == 1 else random_composition(rng, w, 2) for w in weights]


def random_character(rng, kind: str, degree: int, height) -> Character:
    """Dense (every generator), basic, or "few": one generator at each of a fixed set of weights."""
    if kind == "basic":
        return Character.basic(degree)
    if kind == "dense":
        chosen = [Composition(a) for a in generators(degree)]
    else:
        chosen = sparse_support(rng, sorted({2, 3, min(5, degree), degree}))
    return Character(degree, {a: rational(rng, height) for a in chosen})


def random_series(rng, kind: str, degree: int, height) -> NSymSeries:
    """Dense (every composition of weight <= degree) or "few": a constant and one term per fixed weight."""
    if kind == "dense":
        chosen = [Composition(a) for a in oracles.all_compositions(degree)]
    else:
        chosen = [Composition()] + sparse_support(rng, sorted({1, 2, 3, min(5, degree), degree}))
    return NSymSeries(degree, {a: rational(rng, height) for a in chosen})


def convolution_cuts(degree: int) -> int:
    """Cuts visited by one convolution: sum of |alpha| + 1 over generators of weight <= degree."""
    return sum(sum(a) + 1 for a in generators(degree))


class CharSeries(Workload):
    # (degree, zeta, psi, f, g, coefficient height): dense, sparse and mixed pairs.
    # Sparse supports have a fixed weight profile, so the cost does not depend on the seed.
    CASES = [
        (8, "dense", "dense", "dense", "dense", SMALL),
        (9, "dense", "dense", "dense", "dense", LARGE),
        (10, "dense", "few", "dense", "dense", SMALL),
        (11, "dense", "basic", "few", "dense", LARGE),
        (8, "few", "basic", "few", "few", LARGE),
    ]
    TINY_CASES = [
        (4, "dense", "dense", "dense", "dense", SMALL),
        (5, "basic", "few", "few", "dense", LARGE),
    ]

    def __init__(self, seed: int, tiny: bool):
        rng = random.Random(f"char_series/{seed}")
        self.cases = []
        for degree, zk, pk, fk, gk, height in self.TINY_CASES if tiny else self.CASES:
            self.cases.append((
                degree,
                random_character(rng, zk, degree, height),
                random_character(rng, pk, degree, height),
                random_series(rng, fk, degree, height),
                random_series(rng, gk, degree, height),
            ))

    def run(self, h) -> None:
        for degree, zeta, psi, f, g in self.cases:
            h.call("characters.convolve", convolve, zeta, psi)
            h.count("characters.convolve.cuts", convolution_cuts(degree))
            h.call("characters.invert_character", invert_character, zeta)
            h.count("characters.invert_character.cuts", convolution_cuts(degree))
            h.call("characters.char_to_series", char_to_series, psi)
            product = h.call("characters.series_mul", series_mul, f, g)
            h.count("characters.series_mul.pairs_visited", len(f.coeffs) * len(g.coeffs))
            if product is not None:
                h.count("characters.series_mul.terms_out", len(product.coeffs))
            h.call("characters.series_inverse", series_inverse, f)

    def digest_of(self, job, output):
        return output.to_json()

    def check(self, h, digests: list[str]) -> None:
        table = oracles.coeff_table
        for i, (degree, zeta, psi, f, g) in enumerate(self.cases):
            base = 5 * i
            unit = {(): Fraction(1)}
            # realization map: the series of a convolution is the product of the series
            self.judge(h, base, lambda out: table(char_to_series(out)) == oracles.cut_product(
                table(char_to_series(zeta)), table(char_to_series(psi)), degree))
            self.judge(h, base + 1, lambda out: convolve(zeta, out) == Character.identity(degree))
            self.judge(h, base + 2, lambda out: out.degree == degree and in_group_G(out)
                       and series_to_char(out) == psi)
            self.judge(h, base + 3, lambda out: out.degree == degree
                       and table(out) == oracles.cut_product(table(f), table(g), degree))
            self.judge(h, base + 4, lambda out: out.degree == degree
                       and oracles.cut_product(table(f), table(out), degree) == unit)


# --------------------------------------------------------------------------
# hopf_invariants


def multisets(gens: list[tuple[int, ...]], max_degree: int) -> list[tuple[tuple[int, ...], ...]]:
    """Every multiset of generators of total weight <= max_degree, by degree."""
    out = []

    def extend(prefix, start, remaining):
        out.append(tuple(prefix))
        for i in range(start, len(gens)):
            if sum(gens[i]) <= remaining:
                extend(prefix + [gens[i]], i, remaining - sum(gens[i]))

    extend([], 0, max_degree)
    return sorted(out, key=lambda m: (sum(map(sum, m)), sorted(m)))


class HopfInvariants(Workload):
    # (n, number of parts) for chi; the refinement count 2^(n - parts) fixes the cost
    CHI_SHAPES = [(10, 1), (12, 1), (14, 1), (12, 3), (15, 3), (18, 4), (18, 6)]
    TINY_CHI_SHAPES = [(6, 1), (7, 1), (7, 3)]

    def __init__(self, seed: int, tiny: bool):
        rng = random.Random(f"hopf_invariants/{seed}")
        degree = 4 if tiny else 8
        gens = generators(degree)
        self.generators = [Composition(a) for a in gens]
        self.multisets = [GeneratorMultiset(Composition(a) for a in m) for m in multisets(gens, degree)]
        self.gen_scalars = [rational(rng, SMALL) for _ in self.generators]
        self.ms_scalars = [rational(rng, SMALL) for _ in self.multisets]
        self.coproduct_inputs = [c * inject(a) for c, a in zip(self.gen_scalars, self.generators)]
        self.antipode_inputs = [c * HopfElement.basis(m) for c, m in zip(self.ms_scalars, self.multisets)]
        jobs = [("coproduct", i) for i in range(len(self.generators))]
        jobs += [("antipode", i) for i in range(len(self.multisets))]
        self.cold_order = jobs
        self.warm_order = rng.sample(jobs, len(jobs))
        shapes = self.TINY_CHI_SHAPES if tiny else self.CHI_SHAPES
        self.chi_inputs = [random_composition(rng, n, parts) for n, parts in shapes]
        top = 40 if tiny else 400
        self.count_inputs = sorted(rng.sample(range(1, top), 7)) + [top]
        self.job_keys = []

    def _pass(self, h, name: str, order) -> None:
        with h.section(name):
            for kind, i in order:
                if kind == "coproduct":
                    out = h.call("hopf_algebra.coproduct", coproduct, self.coproduct_inputs[i])
                else:
                    out = h.call("hopf_algebra.antipode", antipode, self.antipode_inputs[i])
                self.job_keys.append((name, kind, i))
                if out is not None:
                    h.count(f"hopf_algebra.{kind}.terms_out", len(out.coeffs))

    def run(self, h) -> None:
        self._pass(h, "pass.cold", self.cold_order)
        self._pass(h, "pass.warm", self.warm_order)
        with h.section("chi"):
            for alpha in self.chi_inputs:
                h.call("invariants.chi", chi, alpha)
                self.job_keys.append(("chi", "chi", alpha))
                h.count("invariants.chi.refinements", 2 ** (alpha.weight - len(alpha)))
        with h.section("count"):
            for n in self.count_inputs:
                if h.call("hopf_monoid.count_structures", count_structures, n) is None:
                    h.count("hopf_monoid.count_structures.failed", 1)
                self.job_keys.append(("count", "count", n))

    def digest_of(self, job, output):
        if isinstance(output, TensorElement):
            return sorted(
                [[list(a.parts) for a in left], [list(a.parts) for a in right], str(v)]
                for (left, right), v in output.coeffs.items()
            )
        if isinstance(output, int):
            return str(output)
        return output.to_json()

    def check(self, h, digests: list[str]) -> None:
        cold = {}
        for job_id, (section, kind, i) in enumerate(self.job_keys):
            if section == "pass.cold":
                cold[(kind, i)] = job_id
        table = {}  # basis multiset -> its antipode, read off the cold pass
        for (kind, i), job_id in cold.items():
            out = h.outputs[job_id]
            if kind == "antipode" and out is not None:
                table[self.multisets[i]] = (1 / self.ms_scalars[i]) * out
        for (kind, i), job_id in cold.items():
            if kind == "coproduct":
                self.judge(h, job_id, lambda out: self._coproduct_ok(
                    (1 / self.gen_scalars[i]) * out, self.generators[i]))
            else:
                m = self.multisets[i]
                # defining identity m(S (x) id)Delta(m) = counit(m) 1, with S read from the table
                self.judge(h, job_id, lambda out: self._antipode_identity(table, m))
        rng = random.Random(len(self.multisets))
        low = [m for m in self.multisets if m.degree <= 5]
        high = [m for m in self.multisets if m.degree > 5]
        for m in low + rng.sample(high, min(12, len(high))):
            # antipode o antipode = id on a commutative algebra
            i = self.multisets.index(m)
            self.judge(h, cold[("antipode", i)], lambda out: self._involution_ok(table, m))
        expected = egf_counts(max(self.count_inputs))
        for job_id, (section, kind, key) in enumerate(self.job_keys):
            if section == "pass.warm":
                self.judge(h, job_id, lambda out: digests[job_id] == digests[cold[(kind, key)]])
            elif kind == "chi":
                self.judge(h, job_id, lambda out: not oracles.chi_shape_problems(key.parts, out.coeffs))
            elif kind == "count":
                self.judge(h, job_id, lambda out: out == expected[key])

    @staticmethod
    def _coproduct_ok(t: TensorElement, alpha: Composition) -> bool:
        empty = GeneratorMultiset()
        single = GeneratorMultiset([alpha])
        if coproduct_in_slot(t, 0) != coproduct_in_slot(t, 1):
            return False
        left_unit = {k: v for k, v in t.coeffs.items() if k[0] == empty}
        right_unit = {k: v for k, v in t.coeffs.items() if k[1] == empty}
        return left_unit == {(empty, single): 1} and right_unit == {(single, empty): 1}

    @staticmethod
    def _antipode_identity(table: dict, m: GeneratorMultiset) -> bool:
        acc: dict = {}
        for (left, right), v in coproduct(HopfElement.basis(m)).coeffs.items():
            for gm, c in table[left].coeffs.items():
                key = gm.union(right)
                acc[key] = acc.get(key, 0) + v * c
        acc = {k: v for k, v in acc.items() if v}
        return acc == ({m: 1} if m.degree == 0 else {})

    @staticmethod
    def _involution_ok(table: dict, m: GeneratorMultiset) -> bool:
        acc: dict = {}
        for gm, c in table[m].coeffs.items():
            for inner, d in table[gm].coeffs.items():
                acc[inner] = acc.get(inner, 0) + c * d
        return {k: v for k, v in acc.items() if v} == {m: 1}


# --------------------------------------------------------------------------
# geometry_oracles


def pattern_point(rng, multiplicities) -> Point:
    """A point whose coordinate multiplicities, in decreasing value order, are given."""
    values = set()
    while len(values) < len(multiplicities):
        values.add(Fraction(rng.randint(-30, 30), rng.randint(1, 6)))
    coords = []
    for value, m in zip(sorted(values, reverse=True), multiplicities):
        coords.extend([value] * m)
    rng.shuffle(coords)
    return Point.from_values(standard_ground(len(coords)), coords)


class GeometryOracles(Workload):
    # Multiplicity patterns, in decreasing value order, from all distinct to heavily
    # repeated; vertex count n!/prod(m!).  The functional has level sets of sizes
    # 2, n - 4 and 2, so the maximal face of every slot has a fixed vertex count.
    # normally_equivalent, a sub-millisecond call, runs on the first NORMEQ_SLOTS slots.
    PATTERNS = [
        (2, 2, 2, 1), (3, 3, 1), (4, 2, 1), (6, 1),
        (1, 1, 1, 1, 1, 1), (2, 2, 2), (3, 2, 1), (5, 1),
        (1, 1, 1, 1, 1), (2, 2, 1), (4, 1),
    ]
    TINY_PATTERNS = [(1, 1, 1, 1), (2, 1, 1), (2, 2)]
    NORMEQ_SLOTS = 6
    # parts of the chi compositions; the seed only orders them
    CHI_PARTS = [(1, 3), (2, 3), (1, 2, 2), (2, 4), (1, 1, 2, 2)]
    TINY_CHI_PARTS = [(1, 2), (1, 3)]

    def __init__(self, seed: int, tiny: bool):
        rng = random.Random(f"geometry_oracles/{seed}")
        self.slots = []
        for pattern in self.TINY_PATTERNS if tiny else self.PATTERNS:
            n = sum(pattern)
            p = pattern_point(rng, pattern)
            q = pattern_point(rng, rng.sample(pattern, len(pattern)))
            levels = [Fraction(1)] * 2 + [Fraction(0)] * (n - 4) + [Fraction(-1)] * 2
            rng.shuffle(levels)
            self.slots.append((p, q, dict(zip(p.ground.labels, levels))))
        parts = self.TINY_CHI_PARTS if tiny else self.CHI_PARTS
        self.chi_inputs = [Composition(rng.sample(a, len(a))) for a in parts]

    def run(self, h) -> None:
        for i, (p, q, y) in enumerate(self.slots):
            n = len(p.ground)
            vertices = h.call("geometry.orbit_vertices", orbit_vertices, p)
            if vertices is not None:
                h.count("geometry.orbit_vertices.vertices", len(vertices))
                h.count("geometry.check_base_polytope.vertex_subset_pairs", len(vertices) << n)
            h.call("geometry.check_base_polytope", check_base_polytope, p)
            h.call("geometry.chamber_census", chamber_census, p)
            h.count("geometry.chamber_census.chambers", factorial(n))
            h.call("geometry.max_face_vertices", max_face_vertices, p, y)
            if i < self.NORMEQ_SLOTS:
                h.call("geometry.normally_equivalent", normally_equivalent, p, q)
        for alpha in self.chi_inputs:
            h.call("invariants.chi_bruteforce", chi_bruteforce, alpha)

    def digest_of(self, job, output):
        name = job["name"]
        if name in ("geometry.orbit_vertices", "geometry.max_face_vertices"):
            return sorted(str(v.values) for v in output)
        if name == "geometry.chamber_census":
            return sorted([list(order), str(v.values)] for order, v in output.items())
        if name == "invariants.chi_bruteforce":
            return output.to_json()
        return output

    def check(self, h, digests: list[str]) -> None:
        job = 0
        for i, (p, q, y) in enumerate(self.slots):
            n = len(p.ground)
            vertices = h.outputs[job]
            self.judge(h, job, lambda out: len(out) == vertex_count(p) and all(
                v.ground == p.ground and sorted(v.values) == sorted(p.values) for v in out))
            self.judge(h, job + 1, lambda out: out is True)
            # census-versus-vertices: one weakly sorted vertex per chamber, all of them used
            self.judge(h, job + 2, lambda out: len(out) == factorial(n)
                       and set(out.values()) == vertices
                       and all(all(v[a] >= v[b] for a, b in zip(order, order[1:]))
                               for order, v in out.items()))
            functional = tuple(y[label] for label in p.ground.labels)
            self.judge(h, job + 3, lambda out: {v.values for v in out}
                       == oracles.max_face_brute(p.values, functional))
            job += 4
            if i < self.NORMEQ_SLOTS:
                self.judge(h, job, lambda out: out == (
                    oracles.run_lengths(p.values) == oracles.run_lengths(q.values)))
                job += 1
        for alpha in self.chi_inputs:
            # the ordered-set-partition recount against the refinement sum
            self.judge(h, job, lambda out: out == chi(alpha))
            job += 1


# --------------------------------------------------------------------------
# cli_requests

CLI = "from orbitopes.cli import main; main()"
TRACEBACK = "Traceback (most recent call last)"

# Requests that break the README contract today.  Each is named in the run's output.
KNOWN_DEFECTS = {
    "count_recursion": "count --n 600 overflows the recursion limit (RecursionError traceback)",
    "series_degree_string": 'a series with "degree": "6" raises an uncaught TypeError',
    "series_coeffs_not_array": 'a series with "coeffs": 5 raises an uncaught TypeError',
    "element_multiset_not_array": 'an element term with "multiset": 5 raises an uncaught TypeError',
    "rational_noncanonical": 'non-canonical rationals "2/4", "1.5" and " 3 " are accepted',
    "rational_exponent": 'exponent notation "1e2000000" is parsed into a 6.6M-bit integer',
    "negative_degree": "convolve --degree -3 succeeds with a degree -3 payload",
    "vertices_unbounded": "vertices ignores the ORBITOPE_MAX_N bound of 8 (9 coordinates accepted)",
}


def point_json(p: Point) -> str:
    return json.dumps(p.to_json())


def segment(alpha: tuple, lo: int, hi: int) -> list[int]:
    """The piece of a composition between cut weights lo and hi."""
    out, start = [], 0
    for part in alpha:
        overlap = min(hi, start + part) - max(lo, start)
        if overlap > 0:
            out.append(overlap)
        start += part
    return out


def series_from(payload) -> dict:
    return {tuple(c["composition"]): Fraction(c["coeff"]) for c in payload["coeffs"]}


def binomial_value(coeffs: dict, t: int) -> Fraction:
    return sum((Fraction(c) * comb(t, int(k)) for k, c in coeffs.items()), Fraction(0))


class CliRequests(Workload):
    def __init__(self, seed: int, tiny: bool):
        rng = random.Random(f"cli_requests/{seed}")
        self.workdir = ROOT / "perfbench" / ".work" / f"cli-{os.getpid()}"
        self.workdir.mkdir(parents=True, exist_ok=True)
        self.env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        self.requests = []
        degree = 3 if tiny else 8

        def add(argv, expect="ok", check=None, defect=None):
            self.requests.append({"argv": argv, "expect": expect, "check": check, "defect": defect})

        def write(name, data) -> str:
            path = self.workdir / name
            path.write_text(json.dumps(data))
            return str(path)

        p = pattern_point(rng, rng.sample((2, 1, 1, 3, 1), 5))
        add(["classify", "--point", point_json(p)],
            check=lambda out, p=p: out["composition"] == list(oracles.run_lengths(p.values)))
        p = pattern_point(rng, rng.sample((2, 2, 1, 1), 4))
        add(["vertices", "--point", point_json(p)], check=lambda out, p=p: self._vertices_ok(out, p))
        p = pattern_point(rng, (2, 1, 1, 1))
        y = {label: str(rng.randint(-2, 2)) for label in p.ground.labels}
        add(["maxface", "--point", point_json(p), "--functional", json.dumps(y)],
            check=lambda out, p=p, y=y: {tuple(Fraction(v[l]) for l in p.ground.labels) for v in out["vertices"]}
            == oracles.max_face_brute(p.values, tuple(Fraction(y[l]) for l in p.ground.labels)))
        p, q = pattern_point(rng, (2, 2, 1)), pattern_point(rng, rng.sample((2, 2, 1), 3))
        add(["normeq", "--point", point_json(p), "--point", point_json(q)],
            check=lambda out, p=p, q=q: out["normally_equivalent"]
            == (oracles.run_lengths(p.values) == oracles.run_lengths(q.values)))
        alpha = random_composition(rng, 9, 4)
        sizes = [3, 0, 4, 2]
        add(["delta", "--composition", json.dumps(list(alpha.parts)), "--sizes", json.dumps(sizes)],
            check=lambda out, a=alpha.parts: out["factors"] == [
                segment(a, lo, hi) for lo, hi in [(0, 3), (3, 3), (3, 7), (7, 9)]])
        alpha = random_composition(rng, 6, 3)
        add(["coproduct", "--composition", json.dumps(list(alpha.parts))],
            check=lambda out, a=alpha: HopfInvariants._coproduct_ok(self._tensor(out), a))
        element = HopfElement({
            GeneratorMultiset(Composition(a) for a in m): rational(rng, SMALL)
            for m in rng.sample(multisets(generators(5), 5)[1:], 3)
        })
        add(["antipode", "--element", json.dumps(element.to_json())],
            check=lambda out, x=element: HopfElement.from_json(out["element"]) == oracles.takeuchi_antipode(x))
        alpha = random_composition(rng, 10, 3)
        add(["chi", "--composition", json.dumps(list(alpha.parts)), "--monomial"],
            check=lambda out, a=alpha: self._chi_ok(out, a))
        zeta = random_character(rng, "dense", degree, SMALL)
        psi = random_character(rng, "dense", degree, LARGE)
        files = [write("zeta.json", zeta.to_json()), write("psi.json", psi.to_json())]
        add(["convolve", "--char", files[0], "--char", files[1], "--degree", str(degree)],
            check=lambda out, z=zeta, s=psi: self._convolve_ok(out, z, s))
        f = random_series(rng, "dense", degree, SMALL)
        g = random_series(rng, "dense", degree, LARGE)
        files = [write("f.json", f.to_json()), write("g.json", g.to_json())]
        add(["series-mul", "--series", files[0], "--series", files[1]],
            check=lambda out, f=f, g=g: series_from(out) == oracles.cut_product(
                oracles.coeff_table(f), oracles.coeff_table(g), f.degree))
        f = random_series(rng, "dense", degree + 1, LARGE)
        path = write("h.json", f.to_json())
        add(["series-inv", "--series", path],
            check=lambda out, f=f: oracles.cut_product(
                oracles.coeff_table(f), series_from(out), f.degree) == {(): 1})
        n = 30 if tiny else 300
        add(["count", "--n", str(n)], check=lambda out, n=n: out["count"] == oracles.species_count(n))
        add(["selftest", "--max-n", "2" if tiny else "4"],
            check=lambda out: out["failed"] == 0 and out["passed"] > 0)

        # malformed or out-of-range requests the CLI already refuses cleanly
        add(["classify", "--point", '{"a": "1", "b": '], expect="schema")
        add(["coproduct"], expect="schema")
        one_part = write("one_part.json", {"degree": 4, "values": [{"composition": [3], "value": "1"}]})
        add(["convolve", "--char", one_part, "--char", one_part, "--degree", "4"], expect="schema")
        add(["delta", "--composition", "[2,1]", "--size", "7"], expect="domain")

        # known defects: kept in the mix and counted as failures until fixed
        add(["count", "--n", "600"], defect="count_recursion",
            check=lambda out: out["count"] == oracles.species_count(600))
        add(["series-inv", "--series", write("degree_string.json", {"degree": "6", "coeffs": [
            {"composition": [], "coeff": "1"}, {"composition": [2, 1], "coeff": "1"}]})],
            expect="refuse", defect="series_degree_string")
        add(["series-inv", "--series", write("coeffs_int.json", {"degree": 6, "coeffs": 5})],
            expect="refuse", defect="series_coeffs_not_array")
        add(["antipode", "--element", '[{"coeff": "1", "multiset": 5}]'],
            expect="refuse", defect="element_multiset_not_array")
        add(["classify", "--point", '{"a": "2/4", "b": "1.5", "c": " 3 "}'],
            expect="refuse", defect="rational_noncanonical")
        add(["classify", "--point", '{"a": "1e2000000", "b": "1"}'],
            expect="refuse", defect="rational_exponent")
        negative = write("negative.json", {"degree": -3, "values": []})
        add(["convolve", "--char", negative, "--char", negative, "--degree", "-3"],
            expect="refuse", defect="negative_degree")
        add(["vertices", "--point", point_json(pattern_point(rng, (1, 8)))],
            expect="refuse", defect="vertices_unbounded")

    def _request(self, argv):
        proc = subprocess.run(
            [sys.executable, "-c", CLI, *argv],
            capture_output=True, text=True, env=self.env, timeout=60,
        )
        try:
            payload = json.loads(proc.stdout)
        except ValueError:
            payload = None
        return proc.returncode, payload, proc.stdout, proc.stderr

    def run(self, h) -> None:
        for request in self.requests:
            sub = request["argv"][0]
            out = h.call(f"cli.{sub}", self._request, request["argv"], defect=request["defect"])
            if out is not None:
                h.jobs[-1].update(exit=out[0], traceback=TRACEBACK in out[3])
                problem = self._contract_problem(request, *out)
                if problem:
                    h.fail(len(h.jobs) - 1, problem)
                if sub == "count" and problem:
                    h.count("hopf_monoid.count_structures.failed", 1)

    @staticmethod
    def _contract_problem(request, code, payload, stdout, stderr):
        """Exit code in {0, 1, 2}, JSON on stdout for 0 and 1, no traceback, expected outcome."""
        if TRACEBACK in stderr:
            last = stderr.strip().splitlines()[-1].split(":")[0]
            return f"traceback ({last}), exit {code}"
        if code not in (0, 1, 2):
            return f"exit {code}"
        if code in (0, 1) and payload is None:
            return f"exit {code} without JSON on stdout"
        wanted = {"ok": (0,), "schema": (2,), "domain": (1,), "refuse": (1, 2)}[request["expect"]]
        if code not in wanted:
            return f"exit {code}, expected {' or '.join(map(str, wanted))}"
        return None

    def peak_rss_kb(self) -> int:
        return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss

    def digest_of(self, job, output):
        code, _, stdout, _ = output
        return [code, stdout]

    def check(self, h, digests: list[str]) -> None:
        for job_id, request in enumerate(self.requests):
            out = h.outputs[job_id]
            if request["check"] is not None and out is not None and out[0] == 0:
                self.judge(h, job_id, lambda out: request["check"](out[1]))

    def extra(self, h) -> dict:
        return {"defects": KNOWN_DEFECTS}

    def close(self) -> None:
        shutil.rmtree(self.workdir, ignore_errors=True)

    @staticmethod
    def _vertices_ok(out, p: Point) -> bool:
        labels = list(p.ground.labels)
        rows = [tuple(Fraction(v[l]) for l in labels) for v in out["vertices"]]
        return (len(rows) == vertex_count(p) == len(set(rows))
                and all(sorted(r) == sorted(p.values) for r in rows))

    @staticmethod
    def _tensor(out) -> TensorElement:
        return TensorElement({
            (GeneratorMultiset(Composition(a) for a in t["left"]),
             GeneratorMultiset(Composition(a) for a in t["right"])): Fraction(t["coeff"])
            for t in out["terms"]
        })

    @staticmethod
    def _chi_ok(out, alpha: Composition) -> bool:
        coeffs = {int(k): Fraction(v) for k, v in out["binomial"].items()}
        monomial = [Fraction(c) for c in out["monomial"]]
        same_polynomial = all(
            sum(c * t ** i for i, c in enumerate(monomial)) == binomial_value(coeffs, t)
            for t in range(alpha.weight + 2)
        )
        return same_polynomial and not oracles.chi_shape_problems(alpha.parts, coeffs)

    @staticmethod
    def _convolve_ok(out, zeta: Character, psi: Character) -> bool:
        table = oracles.coeff_table
        series = series_from(out["series"])
        expected = oracles.cut_product(table(char_to_series(zeta)), table(char_to_series(psi)), zeta.degree)
        character = Character.from_json(out["character"])
        return series == expected and table(char_to_series(character)) == series


WORKLOADS = {
    "char_series": CharSeries,
    "hopf_invariants": HopfInvariants,
    "geometry_oracles": GeometryOracles,
    "cli_requests": CliRequests,
}

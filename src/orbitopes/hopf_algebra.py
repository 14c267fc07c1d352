"""Graded Hopf algebra on multisets of generator compositions.

The generators are the composition (1) and every composition with at
least two parts; a one-part composition (n) with n >= 2 is not a
generator, it is the product of n copies of (1).  Basis elements are
finite multisets of generators, so the algebra is free commutative and
the relation for one-part compositions is definitional rather than a
quotient.

The coproduct of a generator sums over all cuts of the composition,
weighted by the binomial coefficient of the cut weight; it extends to
multisets as an algebra map and to arbitrary elements linearly.  The
antipode is computed by degree recursion from its defining identity.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import comb
from typing import Iterable, Mapping

from .compositions import ONE, Composition, compositions_of, is_generator, splits
from .jsonio import composition_from_json, composition_to_json, frac_from_str, frac_to_str


class GeneratorMultiset:
    """Sorted multiset of generator compositions; the algebra's basis."""

    __slots__ = ("members",)

    def __init__(self, members: Iterable[Composition] = ()):
        members = tuple(sorted(members, key=lambda c: c.parts))
        for alpha in members:
            if not is_generator(alpha):
                raise ValueError(f"{alpha} is not a generator (one part, weight >= 2)")
        object.__setattr__(self, "members", members)

    @property
    def degree(self) -> int:
        return sum(alpha.weight for alpha in self.members)

    def union(self, other: "GeneratorMultiset") -> "GeneratorMultiset":
        return GeneratorMultiset(self.members + other.members)

    def __len__(self) -> int:
        return len(self.members)

    def __iter__(self):
        return iter(self.members)

    def __eq__(self, other) -> bool:
        return isinstance(other, GeneratorMultiset) and self.members == other.members

    def __hash__(self) -> int:
        return hash(self.members)

    def __repr__(self) -> str:
        return "{" + ", ".join(str(tuple(a.parts)) for a in self.members) + "}"

    def __setattr__(self, name, value):
        raise AttributeError("GeneratorMultiset is immutable")


EMPTY_MULTISET = GeneratorMultiset()


def _clean(coeffs: dict) -> dict:
    return {k: v for k, v in coeffs.items() if v}


class HopfElement:
    """Finitely supported rational linear combination of generator multisets."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Mapping[GeneratorMultiset, Fraction] = ()):
        self.coeffs = _clean({k: Fraction(v) for k, v in dict(coeffs).items()})

    @classmethod
    def unit(cls) -> "HopfElement":
        return cls({EMPTY_MULTISET: Fraction(1)})

    @classmethod
    def basis(cls, gm: GeneratorMultiset) -> "HopfElement":
        return cls({gm: Fraction(1)})

    def __add__(self, other: "HopfElement") -> "HopfElement":
        out = dict(self.coeffs)
        for k, v in other.coeffs.items():
            out[k] = out.get(k, Fraction(0)) + v
        return HopfElement(out)

    def __sub__(self, other: "HopfElement") -> "HopfElement":
        return self + (-1) * other

    def __rmul__(self, scalar) -> "HopfElement":
        scalar = Fraction(scalar)
        return HopfElement({k: scalar * v for k, v in self.coeffs.items()})

    def __mul__(self, other: "HopfElement") -> "HopfElement":
        return product(self, other)

    def __eq__(self, other) -> bool:
        return isinstance(other, HopfElement) and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(frozenset(self.coeffs.items()))

    def is_zero(self) -> bool:
        return not self.coeffs

    def homogeneous(self, d: int) -> "HopfElement":
        return HopfElement({k: v for k, v in self.coeffs.items() if k.degree == d})

    def max_degree(self) -> int:
        return max((k.degree for k in self.coeffs), default=0)

    def __repr__(self) -> str:
        if not self.coeffs:
            return "0"
        terms = sorted(self.coeffs.items(), key=lambda kv: (kv[0].degree, kv[0].members))
        return " + ".join(f"{v}*{k}" for k, v in terms)

    def to_json(self) -> list:
        ordered = sorted(self.coeffs.items(), key=lambda kv: (kv[0].degree, kv[0].members))
        return [
            {"coeff": frac_to_str(v), "multiset": [composition_to_json(a) for a in k]}
            for k, v in ordered
        ]

    @classmethod
    def from_json(cls, data) -> "HopfElement":
        if not isinstance(data, list):
            raise ValueError("an element must be a JSON array of {coeff, multiset} terms")
        coeffs: dict[GeneratorMultiset, Fraction] = {}
        for term in data:
            if not (isinstance(term, dict) and "coeff" in term and isinstance(term.get("multiset"), list)):
                raise ValueError(f"malformed element term {term!r}")
            gm = GeneratorMultiset(composition_from_json(a) for a in term["multiset"])
            coeffs[gm] = coeffs.get(gm, Fraction(0)) + frac_from_str(term["coeff"])
        return cls(coeffs)


class TensorElement:
    """Finitely supported combination of tuples of generator multisets."""

    __slots__ = ("coeffs", "arity")

    def __init__(self, coeffs: Mapping[tuple, Fraction] = (), arity: int = 2):
        coeffs = _clean({tuple(k): Fraction(v) for k, v in dict(coeffs).items()})
        for key in coeffs:
            if len(key) != arity:
                raise ValueError(f"tensor key {key} does not have arity {arity}")
        self.coeffs = coeffs
        self.arity = arity

    def __add__(self, other: "TensorElement") -> "TensorElement":
        if self.arity != other.arity:
            raise ValueError("tensor arities differ")
        out = dict(self.coeffs)
        for k, v in other.coeffs.items():
            out[k] = out.get(k, Fraction(0)) + v
        return TensorElement(out, self.arity)

    def __sub__(self, other: "TensorElement") -> "TensorElement":
        return self + (-1) * other

    def __rmul__(self, scalar) -> "TensorElement":
        scalar = Fraction(scalar)
        return TensorElement({k: scalar * v for k, v in self.coeffs.items()}, self.arity)

    def __mul__(self, other: "TensorElement") -> "TensorElement":
        """Componentwise product: multisets union slotwise, coefficients multiply."""
        if self.arity != other.arity:
            raise ValueError("tensor arities differ")
        out: dict[tuple, Fraction] = {}
        for k1, v1 in self.coeffs.items():
            for k2, v2 in other.coeffs.items():
                key = tuple(a.union(b) for a, b in zip(k1, k2))
                out[key] = out.get(key, Fraction(0)) + v1 * v2
        return TensorElement(out, self.arity)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, TensorElement)
            and self.arity == other.arity
            and self.coeffs == other.coeffs
        )

    def is_zero(self) -> bool:
        return not self.coeffs

    def __repr__(self) -> str:
        if not self.coeffs:
            return "0"
        return " + ".join(
            f"{v}*(" + " (x) ".join(map(str, k)) + ")" for k, v in self.coeffs.items()
        )

    @classmethod
    def unit(cls, arity: int = 2) -> "TensorElement":
        return cls({(EMPTY_MULTISET,) * arity: Fraction(1)}, arity)


def tensor(x: HopfElement, y: HopfElement) -> TensorElement:
    out = {}
    for k1, v1 in x.coeffs.items():
        for k2, v2 in y.coeffs.items():
            out[(k1, k2)] = v1 * v2
    return TensorElement(out, 2)


def inject(alpha: Composition) -> HopfElement:
    """The class of a composition: a generator, or (1)^n for the one-part (n)."""
    if not alpha:
        return HopfElement.unit()
    if len(alpha) == 1 and alpha.weight >= 2:
        gm = GeneratorMultiset([ONE] * alpha.weight)
    else:
        gm = GeneratorMultiset([alpha])
    return HopfElement.basis(gm)


def product(x: HopfElement, y: HopfElement) -> HopfElement:
    """Bilinear extension of multiset union."""
    out: dict[GeneratorMultiset, Fraction] = {}
    for k1, v1 in x.coeffs.items():
        for k2, v2 in y.coeffs.items():
            key = k1.union(k2)
            out[key] = out.get(key, Fraction(0)) + v1 * v2
    return HopfElement(out)


@lru_cache(maxsize=None)
def _coproduct_generator(alpha: Composition) -> TensorElement:
    out: dict[tuple, Fraction] = {}
    n = alpha.weight
    for beta, gamma in splits(alpha):
        weight = Fraction(comb(n, beta.weight))
        term = weight * tensor(inject(beta), inject(gamma))
        for k, v in term.coeffs.items():
            out[k] = out.get(k, Fraction(0)) + v
    return TensorElement(out, 2)


@lru_cache(maxsize=None)
def _coproduct_basis(gm: GeneratorMultiset) -> TensorElement:
    out = TensorElement.unit(2)
    for alpha in gm:
        out = out * _coproduct_generator(alpha)
    return out


def coproduct(x: HopfElement) -> TensorElement:
    """Algebra-map coproduct: product over each multiset member's cut expansion."""
    out = TensorElement({}, 2)
    for gm, v in x.coeffs.items():
        out = out + v * _coproduct_basis(gm)
    return out


def coproduct_in_slot(t: TensorElement, slot: int) -> TensorElement:
    """Apply the coproduct in one tensor slot, raising the arity by one."""
    out: dict[tuple, Fraction] = {}
    for key, v in t.coeffs.items():
        inner = _coproduct_basis(key[slot])
        for ikey, iv in inner.coeffs.items():
            new_key = key[:slot] + ikey + key[slot + 1:]
            out[new_key] = out.get(new_key, Fraction(0)) + v * iv
    return TensorElement(out, t.arity + 1)


def counit(x: HopfElement) -> Fraction:
    """Coefficient of the empty multiset."""
    return x.coeffs.get(EMPTY_MULTISET, Fraction(0))


@lru_cache(maxsize=None)
def _antipode_basis(gm: GeneratorMultiset) -> HopfElement:
    # degree recursion: the identity m(S (x) id)Delta = unit.counit pins S(x)
    # once S is known below degree |x|
    if gm.degree == 0:
        return HopfElement.unit()
    n = gm.degree
    acc = HopfElement()
    for (left, right), v in _coproduct_basis(gm).coeffs.items():
        if left.degree == n:
            continue  # the x (x) empty term carries S(x) itself
        acc = acc + v * product(_antipode_basis(left), HopfElement.basis(right))
    return (-1) * acc


def antipode(x: HopfElement) -> HopfElement:
    out = HopfElement()
    for gm, v in x.coeffs.items():
        out = out + v * _antipode_basis(gm)
    return out


def apply_antipode_slot(t: TensorElement, slot: int) -> TensorElement:
    """Replace one tensor slot by its antipode (used to state the defining identity)."""
    out = TensorElement({}, t.arity)
    for key, v in t.coeffs.items():
        replaced = _antipode_basis(key[slot])
        for gm, iv in replaced.coeffs.items():
            term = {key[:slot] + (gm,) + key[slot + 1:]: v * iv}
            out = out + TensorElement(term, t.arity)
    return out


def multiply_slots(t: TensorElement) -> HopfElement:
    """Multiply all tensor slots back down to the algebra."""
    out: dict[GeneratorMultiset, Fraction] = {}
    for key, v in t.coeffs.items():
        merged = EMPTY_MULTISET
        for gm in key:
            merged = merged.union(gm)
        out[merged] = out.get(merged, Fraction(0)) + v
    return HopfElement(out)


def generator_multisets(max_degree: int) -> list[GeneratorMultiset]:
    """All basis multisets of total weight <= max_degree, by degree."""
    generators: list[Composition] = []
    for w in range(1, max_degree + 1):
        generators.extend(a for a in compositions_of(w) if is_generator(a))

    out: list[GeneratorMultiset] = []

    def extend(prefix: list[Composition], start: int, remaining: int):
        out.append(GeneratorMultiset(prefix))
        for i in range(start, len(generators)):
            alpha = generators[i]
            if alpha.weight <= remaining:
                extend(prefix + [alpha], i, remaining - alpha.weight)

    extend([], 0, max_degree)
    return sorted(out, key=lambda gm: (gm.degree, tuple(a.parts for a in gm)))

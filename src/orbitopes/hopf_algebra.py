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
antipode of a generator is solved from the cached coproduct entry that
``coproduct`` also reads, by m(S (x) id)Delta = counit, and extends
multiplicatively, since the algebra is commutative; k copies of (1), the
first generator, only prefix S(rest) with the sign (-1)^k.  Both maps are
cached only on basis multisets, in bounded caches of plain dicts with
integer coefficients: the structure constants are binomial coefficients
and their signed sums.  The public maps read their input as integer
numerators over one denominator, sum integers, and build each output
coefficient once as a ``Fraction``.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache, reduce
from math import comb
from typing import Iterable, Mapping

from .compositions import ONE, Composition, _integer, is_generator, splits
from .linear import Linear, as_fraction, combine, frac_from_str, numerators


class GeneratorMultiset(tuple):
    """Sorted tuple of generator compositions; the algebra's basis.

    Equality, order and hashing are the tuple's, so ``EMPTY_MULTISET == ()``.
    """

    __slots__ = ()

    def __new__(cls, members: Iterable[Composition] = ()):
        if type(members) is cls:
            return members  # already validated, and immutable
        self = tuple.__new__(cls, sorted(map(Composition, members)))
        for alpha in self:
            if not is_generator(alpha):
                raise ValueError(f"{alpha} is not a generator (one part, weight >= 2)")
        return self

    @property
    def degree(self) -> int:
        return sum(alpha.weight for alpha in self)

    def union(self, other: "GeneratorMultiset") -> "GeneratorMultiset":
        # trusted merge: both sides already hold only generators
        return _multiset(self + other)

    def __repr__(self) -> str:
        return "{" + ", ".join(str(tuple(a)) for a in self) + "}"


EMPTY_MULTISET = GeneratorMultiset()
# entries per basis cache, above the 1718 basis multisets of degree <= 9;
# the cached dicts are shared, so callers only read them
_BASIS_CACHE_SIZE = 4096


def _multiset(members: Iterable[Composition]) -> GeneratorMultiset:
    """Trusted constructor for members that are already generators: no re-validation."""
    return tuple.__new__(GeneratorMultiset, sorted(members))


def _times(x: dict, y: dict) -> dict:
    """Product of two coefficient dicts on multisets: bilinear extension of union."""
    return combine((k1.union(k2), v1 * v2) for k1, v1 in x.items() for k2, v2 in y.items())


def _tensor_times(x: dict, y: dict) -> dict:
    """Product of two coefficient dicts on tuples of multisets: union slot by slot."""
    return combine(
        (tuple(a.union(b) for a, b in zip(k1, k2)), v1 * v2)
        for k1, v1 in x.items()
        for k2, v2 in y.items()
    )


def _scaled(coeffs: dict, image) -> dict:
    """Sum of v * image(key) over the terms of ``coeffs``, where ``image`` gives int dicts."""
    if len(coeffs) == 1:
        # one image: its keys are distinct and its values nonzero, so nothing combines
        [(key, v)] = coeffs.items()
        num, den = v.numerator, v.denominator
        return {out: Fraction(num * w, den) for out, w in image(key).items()}
    den, nums = numerators(coeffs)
    summed = combine((out, num * w) for key, num in nums.items() for out, w in image(key).items())
    return {out: Fraction(num, den) for out, num in summed.items()}


class HopfElement(Linear):
    """Finitely supported rational linear combination of generator multisets."""

    __slots__ = ()

    def __init__(self, coeffs: Mapping[GeneratorMultiset, Fraction] = ()):
        self.coeffs = combine((GeneratorMultiset(k), as_fraction(v)) for k, v in dict(coeffs).items())

    @classmethod
    def unit(cls) -> "HopfElement":
        return cls._of({EMPTY_MULTISET: Fraction(1)})

    @classmethod
    def basis(cls, gm: GeneratorMultiset) -> "HopfElement":
        return cls({gm: Fraction(1)})

    def __mul__(self, other: "HopfElement") -> "HopfElement":
        return product(self, other)

    def __hash__(self) -> int:
        return hash(frozenset(self.coeffs.items()))

    def __repr__(self) -> str:
        if not self.coeffs:
            return "0"
        terms = sorted(self.coeffs.items(), key=lambda kv: (kv[0].degree, kv[0]))
        return " + ".join(f"{v}*{k}" for k, v in terms)

    def to_json(self) -> list:
        ordered = sorted(self.coeffs.items(), key=lambda kv: (kv[0].degree, kv[0]))
        return [
            {"coeff": str(v), "multiset": [list(a) for a in k]}
            for k, v in ordered
        ]

    @classmethod
    def from_json(cls, data) -> "HopfElement":
        if not isinstance(data, list):
            raise ValueError("an element must be a JSON array of {coeff, multiset} terms")
        coeffs = {}
        for term in data:
            if not (isinstance(term, dict) and "coeff" in term and isinstance(term.get("multiset"), list)):
                raise ValueError(f"malformed element term {term!r}")
            gm = GeneratorMultiset(Composition.from_json(a) for a in term["multiset"])
            if gm in coeffs:
                raise ValueError(f"multiset {[list(a) for a in gm]} is given twice")
            coeffs[gm] = frac_from_str(term["coeff"])
        return cls._of({gm: v for gm, v in coeffs.items() if v})


class TensorElement(Linear):
    """Finitely supported combination of tuples of generator multisets."""

    __slots__ = ("arity",)
    _grade = "arity"
    _mismatch = "tensor arities differ"

    def __init__(self, coeffs: Mapping[tuple, Fraction] = (), arity: int = 2):
        arity = _arity(arity)
        coeffs = combine(
            (tuple(map(GeneratorMultiset, k)), as_fraction(v)) for k, v in dict(coeffs).items()
        )
        for key in coeffs:
            if len(key) != arity:
                raise ValueError(f"tensor key {key} does not have arity {arity}")
        self.coeffs = coeffs
        self.arity = arity

    def __mul__(self, other: "TensorElement") -> "TensorElement":
        """Componentwise product: multisets union slotwise, coefficients multiply."""
        if self.arity != other.arity:
            raise ValueError(self._mismatch)
        return TensorElement._of(_tensor_times(self.coeffs, other.coeffs), self.arity)

    def __repr__(self) -> str:
        if not self.coeffs:
            return "0"
        return " + ".join(
            f"{v}*(" + " (x) ".join(map(str, k)) + ")" for k, v in self.coeffs.items()
        )

    @classmethod
    def unit(cls, arity: int = 2) -> "TensorElement":
        arity = _arity(arity)
        return cls._of({(EMPTY_MULTISET,) * arity: Fraction(1)}, arity)


def _arity(arity) -> int:
    arity = _integer(arity, "tensor arity")
    if arity < 0:
        raise ValueError(f"tensor arity must be nonnegative, got {arity}")
    return arity


def _class(alpha: Composition) -> GeneratorMultiset:
    """The basis multiset of a composition: (1)^n for the one-part (n), else alpha itself."""
    if len(alpha) == 1:
        return _multiset((ONE,) * alpha.weight)
    return _multiset((alpha,) if alpha else ())


def inject(alpha: Composition) -> HopfElement:
    """The class of a composition: a generator, or (1)^n for the one-part (n)."""
    return HopfElement.basis(_class(alpha))


def product(x: HopfElement, y: HopfElement) -> HopfElement:
    """Bilinear extension of multiset union."""
    return HopfElement._of(_times(x.coeffs, y.coeffs))


def _coproduct_generator(alpha: Composition) -> dict[tuple, int]:
    # one term per cut; the left degrees differ, so the keys are distinct
    n = alpha.weight
    return {(_class(beta), _class(gamma)): comb(n, i) for i, (beta, gamma) in enumerate(splits(alpha))}


@lru_cache(maxsize=_BASIS_CACHE_SIZE)
def _coproduct_basis(gm: GeneratorMultiset) -> dict[tuple, int]:
    # (1) sorts first; its k copies are the class of (k): one cut sum with k + 1 terms
    ones = gm.count(ONE)
    factors = ((Composition((ones,)),) if ones else ()) + gm[ones:]
    if not factors:
        return {(EMPTY_MULTISET,) * 2: 1}
    return reduce(_tensor_times, map(_coproduct_generator, factors))


def coproduct(x: HopfElement) -> TensorElement:
    """Algebra-map coproduct, from the cached coproducts of x's basis multisets."""
    return TensorElement._of(_scaled(x.coeffs, _coproduct_basis), 2)


def coproduct_in_slot(t: TensorElement, slot: int) -> TensorElement:
    """Apply the coproduct in one tensor slot, raising the arity by one."""
    slot = _integer(slot, "slot")
    if not 0 <= slot < t.arity:
        raise ValueError(f"slot {slot} out of range for arity {t.arity}")
    return TensorElement._of(_scaled(t.coeffs, lambda key: {
        key[:slot] + inner + key[slot + 1:]: w for inner, w in _coproduct_basis(key[slot]).items()
    }), t.arity + 1)


def counit(x: HopfElement) -> Fraction:
    """Coefficient of the empty multiset."""
    return x.coeffs.get(EMPTY_MULTISET, Fraction(0))


@lru_cache(maxsize=_BASIS_CACHE_SIZE)
def _antipode_basis(gm: GeneratorMultiset) -> dict[GeneratorMultiset, int]:
    ones = gm.count(ONE)
    if ones:
        # S((1)) = -(1) and (1) sorts first: k copies prefix each sorted key of S(rest), sign (-1)^k
        rest = _antipode_basis(tuple.__new__(GeneratorMultiset, gm[ones:]))
        return {tuple.__new__(GeneratorMultiset, gm[:ones] + key): (-1) ** ones * v for key, v in rest.items()}
    if not gm:
        return {EMPTY_MULTISET: 1}
    if len(gm) > 1:
        # the algebra is commutative, so S is an algebra map
        return reduce(_times, (_antipode_basis(_class(alpha)) for alpha in gm))
    # m(S (x) id)Delta(alpha) = 0: every term but alpha (x) empty has lower left degree
    return combine(
        (left.union(right), -c * v)
        for (top, right), c in _coproduct_basis(gm).items() if top != gm
        for left, v in _antipode_basis(top).items()
    )


def antipode(x: HopfElement) -> HopfElement:
    return HopfElement._of(_scaled(x.coeffs, _antipode_basis))

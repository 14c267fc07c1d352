"""The shared sparse-vector core: sum, difference, scalar multiple, equality and grade checks."""

from fractions import Fraction

import pytest

from orbitopes.characters import Character, NSymSeries
from orbitopes.geometry import Point, standard_ground
from orbitopes.hopf_algebra import EMPTY_MULTISET, HopfElement, TensorElement
from orbitopes.invariants import BinomialPolynomial
from orbitopes.linear import Linear, as_fraction, combine, numerators
from oracles import gm

F = Fraction


# per type: two elements sharing one key and each with one of their own,
# an element of another grade with its mismatch message (None if ungraded), and hashability
CASES = {
    "HopfElement": (
        HopfElement({gm((1,)): 1, gm((2, 1)): F(1, 2)}),
        HopfElement({gm((1,)): -3, gm((1, 1)): 2}),
        None,
        True,
    ),
    "TensorElement": (
        TensorElement({(gm((1,)), EMPTY_MULTISET): 1, (gm((1, 1)), gm((1,))): F(-2, 3)}),
        TensorElement({(gm((1,)), EMPTY_MULTISET): 5, (EMPTY_MULTISET, EMPTY_MULTISET): 1}),
        (TensorElement({}, 3), "tensor arities differ"),
        False,
    ),
    "NSymSeries": (
        NSymSeries(4, {(): 1, (2, 1): F(1, 2)}),
        NSymSeries(4, {(): F(-1, 4), (1, 1, 2): 7}),
        (NSymSeries(5, {}), "truncation degrees differ"),
        False,
    ),
    "BinomialPolynomial": (
        BinomialPolynomial({0: 1, 2: F(1, 2)}),
        BinomialPolynomial({2: 3, 5: F(-1, 6)}),
        None,
        True,
    ),
}


def expected(a, b, op):
    keys = a.coeffs.keys() | b.coeffs.keys()
    values = {k: op(a.coeffs.get(k, 0), b.coeffs.get(k, 0)) for k in keys}
    return {k: v for k, v in values.items() if v}


@pytest.mark.parametrize("name", CASES)
def test_linear_operations(name):
    a, b, other_grade, hashable = CASES[name]
    cls = type(a)
    assert issubclass(cls, Linear)
    assert not {"__add__", "__sub__", "__rmul__", "__eq__", "_of"} & vars(cls).keys()

    total = a + b
    assert type(total) is cls and total.coeffs == expected(a, b, lambda x, y: x + y)
    assert (a - b).coeffs == expected(a, b, lambda x, y: x - y)
    assert a - b + b == a and b + a == total
    assert (0 * a).coeffs == {} and 0 * a == a - a
    assert (a - a).coeffs == {} and type(a - a) is cls
    third = F(1, 3) * a
    assert third.coeffs == {k: v / 3 for k, v in a.coeffs.items()}
    assert all(type(v) is Fraction for v in (2 * a).coeffs.values())

    for other_name, (x, *_) in CASES.items():
        if other_name != name:
            assert a != x
            with pytest.raises(TypeError):
                a + x
    assert a != a.coeffs

    if other_grade is not None:
        c, message = other_grade
        assert 0 * a != c
        for op in (lambda: a + c, lambda: a - c, lambda: c + a, lambda: a * c):
            with pytest.raises(ValueError) as info:
                op()
            assert str(info.value) == message

    if hashable:
        assert hash(a + b) == hash(b + a) and len({a + b: 0, b + a: 1}) == 1
    else:
        with pytest.raises(TypeError):
            hash(a)


def test_combine_sums_and_drops_zeros():
    assert combine([("x", F(1)), ("y", F(2)), ("x", F(-1)), ("z", 0)]) == {"y": F(2)}
    assert list(combine([("b", 1), ("a", 2), ("b", 3)])) == ["b", "a"]


def test_numerators_share_one_denominator():
    assert numerators({"a": F(1, 6), "b": F(-1, 4), "c": F(2)}) == (12, {"a": 2, "b": -3, "c": 24})
    assert numerators({}) == (1, {})


def test_constructors_keep_a_fraction_without_copying_it():
    # a Fraction is immutable, so each validating constructor stores the object it is given
    q = F(2, 3)
    assert as_fraction(q) is q and as_fraction(2) == 2 and type(as_fraction(2)) is F
    stored = [
        HopfElement({gm((1,)): q}).coeffs[gm((1,))],
        TensorElement({(gm((1,)), EMPTY_MULTISET): q}).coeffs[(gm((1,)), EMPTY_MULTISET)],
        BinomialPolynomial({3: q}).coeffs[3],
        NSymSeries(4, {(2, 1): q}).coeffs[(2, 1)],
        Character(4, {(1, 2): q}).values[(1, 2)],
        Point(standard_ground(1), {"1": q}).values[0],
        Point.from_values(standard_ground(1), [q]).values[0],
    ]
    assert all(v is q for v in stored)

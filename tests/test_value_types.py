"""The contract of the three value types: immutable, validated, hashable by value."""

import pytest

from orbitopes.characters import Character
from orbitopes.compositions import EMPTY, Composition, multinomial
from orbitopes.geometry import GroundSet, representative_point, standard_ground
from orbitopes.hopf_algebra import EMPTY_MULTISET, GeneratorMultiset
from orbitopes.hopf_monoid import OrbitClassElement, class_of

C = Composition
GM = GeneratorMultiset

SAMPLES = [
    (C((1, 2)), "parts"),
    (GM([C((2, 1)), C((1,))]), "degree"),
    (GroundSet(("b", "a", "c")), "labels"),
]


@pytest.mark.parametrize("value, field", SAMPLES)
def test_attribute_assignment_raises(value, field):
    with pytest.raises(AttributeError):
        setattr(value, field, ())
    with pytest.raises(AttributeError):
        value.extra = 1


def test_validation_errors_are_unchanged():
    with pytest.raises(ValueError, match=r"^composition parts must be positive, got \(1, 0\)$"):
        C((1, 0))
    with pytest.raises(ValueError, match=r"^\[2\] is not a generator \(one part, weight >= 2\)$"):
        GM([C((1,)), C((2,))])
    with pytest.raises(ValueError, match=r"^ground-set labels must be distinct: \('a', 'a'\)$"):
        GroundSet(("a", "a"))


def test_messages_write_compositions_as_json():
    # the library's messages name a composition as the CLI reads it, e.g. [1, 2]
    with pytest.raises(ValueError, match=r"^\|\[1, 2\]\| exceeds truncation degree 2$"):
        Character.basic(2).on_composition(C((1, 2)))
    with pytest.raises(ValueError, match=r"^\|\[1, 2\]\| = 3 does not match ground set of size 2$"):
        representative_point(C((1, 2)), standard_ground(2))
    with pytest.raises(ValueError, match=r"^\|\[1, 2\]\| = 3 does not match 1 labels$"):
        class_of(C((1, 2)), ["a"])
    with pytest.raises(ValueError, match=r"^composition \[1, 2\] does not fit block of size 2$"):
        OrbitClassElement(["a", "b"], [(["a", "b"], C((1, 2)))])
    with pytest.raises(ValueError, match=r"^\[1, 2\] is not a composition of 4$"):
        multinomial(4, C((1, 2)))
    assert str(C((1, 2))) == "[1, 2]" and str(EMPTY) == "[]"


def test_items_are_coerced():
    parts = C([True, 2])  # integer-likes (operator.index) become plain ints
    assert parts == (1, 2) and all(type(p) is int for p in parts)
    assert tuple(GroundSet([1, 2])) == ("1", "2")


def test_equal_values_hash_equal():
    pairs = [
        (C((1, 2)), C([1, 2])),
        (GM([C((2, 1)), C((1,))]), GM([C((1,)), C((2, 1))])),
        (GroundSet(("b", "a")), GroundSet(["b", "a"])),
    ]
    for x, y in pairs:
        assert x == y and hash(x) == hash(y)
        assert len({x: 0, y: 1}) == 1
    assert C((1, 2)) != C((2, 1))
    assert GroundSet(("a", "b")) != GroundSet(("b", "a"))


def test_generator_multiset_members_come_out_sorted():
    gm = GM([C((2, 1)), C((1, 1)), C((1,)), C((1, 1))])
    assert list(gm) == [C((1,)), C((1, 1)), C((1, 1)), C((2, 1))]
    assert gm.degree == 8
    assert list(gm.union(GM([C((1, 2))]))) == [C((1,)), C((1, 1)), C((1, 1)), C((1, 2)), C((2, 1))]


def test_named_fields_yield_the_items():
    assert tuple(C((1, 2)).parts) == (1, 2)
    assert list(GM([C((2, 1)), C((1,))])) == [C((1,)), C((2, 1))]
    assert tuple(GroundSet(("b", "a", "c")).labels) == ("b", "a", "c")
    assert tuple(GroundSet(("b", "a", "c")).restricted({"c", "b"})) == ("b", "c")


def test_reprs_are_unchanged():
    assert repr(C((1, 2))) == "Composition(1, 2)"
    assert repr(C((3,))) == "Composition(3,)"
    assert repr(EMPTY) == "Composition()"
    assert repr(GM([C((2, 1)), C((1,))])) == "{(1,), (2, 1)}"
    assert repr(EMPTY_MULTISET) == "{}"


def test_value_types_are_slotted_tuples():
    inherited = {"__init__", "__setattr__", "__len__", "__iter__", "__getitem__", "__bool__",
                 "__eq__", "__lt__", "__hash__", "__contains__"}
    for cls in (Composition, GeneratorMultiset, GroundSet):
        assert issubclass(cls, tuple) and cls.__slots__ == ()
        assert not inherited & vars(cls).keys(), cls
    # deliberate: equality and hashing are the tuple's
    assert C((1, 2)) == (1, 2) and hash(C((1, 2))) == hash((1, 2))
    assert EMPTY == EMPTY_MULTISET == ()

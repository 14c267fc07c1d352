import random
import re
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from orbitopes.compositions import (
    EMPTY,
    Composition,
    compositions_of,
    concat,
    iterated_restrict,
    multinomial,
    near_concat,
    restrict_contract,
    splits,
    stirling_row,
    stirling_step,
)
from oracles import brute_force_splits, refinements, remainder_restrict

C = Composition


def compositions_up_to(max_n):
    for n in range(max_n + 1):
        yield from compositions_of(n)


st_composition = st.integers(0, 7).flatmap(
    lambda n: st.sampled_from(list(compositions_of(n)))
)


def test_composition_basics():
    assert C((1, 2, 1)).weight == 4
    assert len(C((1, 2, 1))) == 3
    assert EMPTY.weight == 0 and len(EMPTY) == 0
    assert C((1, 2)) == C([1, 2])
    assert C((1, 2)) != C((2, 1))
    with pytest.raises(ValueError):
        C((1, 0))
    # parts must be integers: nothing is truncated
    for parts in ([1.5, 2.9], "12", [1, 2.0], 5):
        with pytest.raises(ValueError, match="integers"):
            C(parts)


def test_concat_examples():
    assert concat(C((1, 2)), C((3,))) == C((1, 2, 3))
    assert concat(EMPTY, C((2, 1))) == C((2, 1))
    assert concat(C((2, 1)), EMPTY) == C((2, 1))


def test_near_concat_examples():
    assert near_concat(C((1,)), C((1, 1))) == C((2, 1))
    assert near_concat(C((1, 2)), C((3,))) == C((1, 5))
    assert near_concat(C((1,)), C((1,))) == C((2,))
    with pytest.raises(ValueError, match="nonempty"):
        near_concat(EMPTY, C((1,)))
    with pytest.raises(ValueError, match="nonempty"):
        near_concat(C((1,)), EMPTY)


def test_splits_examples():
    assert splits(C((2, 1))) == (
        (EMPTY, C((2, 1))),
        (C((1,)), C((1, 1))),
        (C((2,)), C((1,))),
        (C((2, 1)), EMPTY),
    )
    assert splits(EMPTY) == ((EMPTY, EMPTY),)
    assert splits(C((3,))) == (
        (EMPTY, C((3,))),
        (C((1,)), C((2,))),
        (C((2,)), C((1,))),
        (C((3,)), EMPTY),
    )


def test_restrict_contract_examples():
    assert restrict_contract(C((2, 1, 1, 3, 1)), 4) == (C((2, 1, 1)), C((3, 1)))
    assert restrict_contract(C((1, 2, 1)), 0) == (EMPTY, C((1, 2, 1)))
    assert restrict_contract(C((1, 2, 1)), 2) == (C((1, 1)), C((1, 1)))
    with pytest.raises(ValueError, match="out of range"):
        restrict_contract(C((1, 2, 1)), 5)
    # a cut weight is an integer: an integer-like passes, a float or string is refused, not truncated
    assert restrict_contract(C((2,)), True) == (C((1,)), C((1,)))
    for weight in (1.0, 1.5, "1", None):
        with pytest.raises(ValueError, match="cut weight must be an integer"):
            restrict_contract(C((2,)), weight)


def test_splits_match_exhaustive_pair_search():
    # unique (beta, gamma) per left weight, and no other pair works
    for alpha in compositions_up_to(8):
        n = alpha.weight
        found = brute_force_splits(alpha)
        by_weight = {i: (b, g) for i, b, g, _ in found}
        assert len(found) == len(by_weight) == n + 1
        assert splits(alpha) == tuple(by_weight[i] for i in range(n + 1))


def test_restrict_contract_reads_splits():
    # splits and restrict_contract share one walk over the parts
    for alpha in compositions_up_to(8):
        cuts = splits(alpha)
        assert len(cuts) == alpha.weight + 1
        for i in range(alpha.weight + 1):
            cut = restrict_contract(alpha, i)
            assert cut == cuts[i]
            assert all(type(piece) is Composition for piece in cut + cuts[i])
        for i in (-1, alpha.weight + 1):
            with pytest.raises(ValueError, match=f"^{re.escape(f'cut weight {i} out of range for {alpha}')}$"):
                restrict_contract(alpha, i)
    # one cut of a huge part walks one part, not the 10**9 cuts inside it
    big = C((10**9,))
    assert restrict_contract(big, 5) == (C((5,)), C((10**9 - 5,)))
    assert restrict_contract(big, 0) == (EMPTY, big) and restrict_contract(big, 10**9) == (big, EMPTY)
    with pytest.raises(ValueError, match="out of range"):
        restrict_contract(big, 10**9 + 1)


def test_iterated_restrict_matches_the_remainder_loop():
    # one single cut at a time off the remainder, empty pieces included
    for alpha in compositions_up_to(8):
        for c in compositions_of(alpha.weight):
            for sizes in (list(c), [0, *c, 0]):
                pieces = iterated_restrict(alpha, sizes)
                assert pieces == remainder_restrict(alpha, sizes)
                assert all(type(piece) is Composition for piece in pieces)
    # many pieces: 1^2000 into ones, and (3, 7, 2)^300 by seeded sizes, zeros among them
    ones = C((1,) * 2000)
    assert iterated_restrict(ones, [1] * 2000) == remainder_restrict(ones, [1] * 2000) == [C((1,))] * 2000
    alpha = C((3, 7, 2) * 300)
    rng = random.Random(31)
    sizes = []
    while sum(sizes) < alpha.weight:
        sizes.append(min(rng.randint(0, 9), alpha.weight - sum(sizes)))
    assert iterated_restrict(alpha, sizes) == remainder_restrict(alpha, sizes)


def test_iterated_restrict_examples():
    assert iterated_restrict(C((1, 2, 1)), [2, 2]) == [C((1, 1)), C((1, 1))]
    assert iterated_restrict(C((3,)), [1, 1, 1]) == [C((1,)), C((1,)), C((1,))]
    assert iterated_restrict(C((1, 2, 1)), [1, 3]) == [C((1,)), C((2, 1))]
    assert iterated_restrict(C((1, 2, 1)), [0, 4]) == [EMPTY, C((1, 2, 1))]
    with pytest.raises(ValueError, match="sum"):
        iterated_restrict(C((1, 2, 1)), [2, 1])
    with pytest.raises(ValueError, match="^piece sizes must be nonnegative$"):
        iterated_restrict(C((1, 2, 1)), [5, -1])
    for sizes in ([1.0, 1.0], [2.0, 0], ["1", 1], [None, 2]):
        with pytest.raises(ValueError, match="piece size must be an integer"):
            iterated_restrict(C((2,)), sizes)


def _reassemble(alpha, sizes, pieces):
    # join with near-concatenation exactly where the cut fell inside a part
    if not pieces:
        return EMPTY
    acc = pieces[0]
    cut = 0
    for piece, size in zip(pieces[1:], sizes[:-1]):
        cut += size
        left, right = restrict_contract(alpha, cut)
        is_near = concat(left, right) != alpha
        if not acc or not piece:
            acc = concat(acc, piece)
        elif is_near:
            acc = near_concat(acc, piece)
        else:
            acc = concat(acc, piece)
    return acc


def test_iterated_restrict_reassembles():
    for alpha in compositions_up_to(6):
        n = alpha.weight
        for sizes in compositions_of(n):
            sizes = list(sizes)
            pieces = iterated_restrict(alpha, sizes)
            assert _reassemble(alpha, sizes, pieces) == alpha


def test_iterated_restrict_cut_order_independent():
    # splitting in one pass agrees with any two-stage split
    for alpha in compositions_up_to(6):
        for sizes in compositions_of(alpha.weight):
            sizes = list(sizes)
            full = iterated_restrict(alpha, sizes)
            for j in range(len(sizes) + 1):
                head, tail = restrict_contract(alpha, sum(sizes[:j]))
                two_stage = iterated_restrict(head, sizes[:j]) + iterated_restrict(tail, sizes[j:])
                assert two_stage == full


@given(st_composition, st_composition, st_composition)
def test_concat_associative(a, b, c):
    assert concat(concat(a, b), c) == concat(a, concat(b, c))


@given(st_composition.filter(bool), st_composition.filter(bool), st_composition.filter(bool))
def test_near_concat_associative(a, b, c):
    assert near_concat(near_concat(a, b), c) == near_concat(a, near_concat(b, c))


def test_refinements_examples():
    assert set(refinements(C((2, 1)))) == {C((2, 1)), C((1, 1, 1))}
    assert refinements(C((1, 1))) == [C((1, 1))]
    assert set(refinements(C((3,)))) == {C((3,)), C((2, 1)), C((1, 2)), C((1, 1, 1))}
    assert refinements(EMPTY) == [EMPTY]


def test_refinement_counts():
    for alpha in compositions_up_to(8):
        expected = 1
        for part in alpha:
            expected *= 2 ** (part - 1)
        refs = refinements(alpha)
        assert len(refs) == len(set(refs)) == expected


def test_refinement_partial_order():
    for n in range(7):
        comps = compositions_of(n)
        refines = {alpha: set(refinements(alpha)) for alpha in comps}
        for alpha in comps:
            assert alpha in refines[alpha]
            for gamma in refines[alpha]:
                if alpha in refines[gamma]:
                    assert alpha == gamma
                for delta in refines[gamma]:
                    assert delta in refines[alpha]


def test_compositions_of_counts_and_order():
    assert len(compositions_of(3)) == 4
    assert compositions_of(0) == (EMPTY,)
    assert len(compositions_of(5)) == 16
    for n in range(8):
        comps = compositions_of(n)
        assert len(comps) == (1 if n == 0 else 2 ** (n - 1))
        assert list(comps) == sorted(comps)
        assert all(c.weight == n for c in comps)
    with pytest.raises(ValueError):
        compositions_of(-1)
    for wrong in (2.0, "3", None):
        with pytest.raises(ValueError, match="n must be an integer"):
            compositions_of(wrong)


def test_multinomial_examples():
    assert multinomial(4, C((1, 2, 1))) == 12
    assert multinomial(5, C((5,))) == 1
    assert multinomial(4, C((1, 1, 1, 1))) == 24
    with pytest.raises(ValueError):
        multinomial(5, C((1, 2, 1)))
    # n is read as restrict_contract reads a cut weight: an integer-like passes
    assert multinomial(True, C((1,))) == 1
    for wrong in (1.0, "1", None):
        with pytest.raises(ValueError, match="^n must be an integer"):
            multinomial(wrong, C((1,)))


def test_stirling_row_is_its_steps_and_refuses_a_bad_m():
    row = [1]
    for m in range(1, 12):
        step = stirling_step(row)
        assert row == stirling_row(m - 1)  # the step leaves its input as it was
        row = step
        assert row == stirling_row(m)
    assert stirling_row(4) == [0, 1, 7, 6, 1]
    with pytest.raises(ValueError, match="^m must be nonnegative$"):
        stirling_row(-2)
    for wrong in (2.5, "3", None):
        with pytest.raises(ValueError, match="^m must be an integer"):
            stirling_row(wrong)


def test_multinomial_stays_exact_beyond_machine_words():
    assert multinomial(24, C((1,) * 24)) == 620448401733239439360000

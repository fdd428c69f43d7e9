"""Path-function engine: golden values, independent oracles, DP vs. recurrence."""

import random
from itertools import permutations
from math import comb, factorial

import pytest
from hypothesis import given, settings, strategies as st

from pathcensus.engine import MemoTable, f_recurrence, f_two_block, f_value, f_walk
from pathcensus.errors import UndefinedType
from pathcensus.types import compositions, signed_lift

comps = st.lists(st.integers(1, 4), min_size=1, max_size=5).map(tuple)


# independent oracles ---------------------------------------------------------

def pattern_count(comp):
    """Permutations of 1..p+1 whose ascent/descent word matches the
    leading-positive lift of `comp`; equals the path-function by the
    enumeration/direction bookkeeping.  Brute force, for small totals."""
    word = []
    for e in signed_lift(comp, True):
        word.extend([e > 0] * abs(e))
    n = len(word) + 1
    count = 0
    for perm in permutations(range(1, n + 1)):
        if all((perm[i] < perm[i + 1]) == word[i] for i in range(n - 1)):
            count += 1
    return count


def boustrophedon_counts(limit):
    """Alternating-permutation counts a(0..limit) via the boustrophedon
    triangle: row(n)[k] = row(n)[k-1] + row(n-1)[n-k]."""
    counts = [1]
    prev = [1]
    for n in range(1, limit + 1):
        row = [0]
        for k in range(1, n + 1):
            row.append(row[k - 1] + prev[n - k])
        counts.append(row[n])
        prev = row
    return counts


# golden values ---------------------------------------------------------------

PAPER_GOLDEN = {
    (2,): 1,
    (1, 1): 2,
    (1, 1, 1): 5,
    (3, 3): 20,
    (1, 1, 4): 20,
    (3, 4): 35,
    (2, 11, 5): 637924,
}

# frozen from exhaustive descent-pattern counts over S_5 and S_6
DERIVED_GOLDEN = {
    (1, 1, 1, 1): 16,
    (1, 2, 1): 11,
    (1, 2, 1, 1): 40,
    (3,): 1,
    (1, 2): 3,
    (2, 1): 3,
}


@pytest.mark.parametrize("comp,want", sorted(PAPER_GOLDEN.items()))
def test_paper_golden_values(comp, want):
    assert f_value(comp) == want


@pytest.mark.parametrize("comp,want", sorted(DERIVED_GOLDEN.items()))
def test_derived_golden_values(comp, want):
    assert f_value(comp) == want


def test_matches_pattern_oracle_exhaustively_to_total_6():
    memo = MemoTable()
    for total in range(1, 7):
        for comp in compositions(total):
            assert f_value(comp, memo) == pattern_count(comp), comp


def test_dp_and_table_match_the_recurrence_to_total_14():
    reference = MemoTable()
    for total in range(1, 15):
        table = dict(f_walk(total))
        assert len(table) == 2 ** (total - 1)
        for comp in compositions(total):
            want = f_recurrence(comp, reference)
            assert f_value(comp) == want, comp
            assert table[comp] == want, comp


def test_walk_values_every_composition_of_every_total_once():
    for p in range(1, 13):
        rows = list(f_walk(p))
        comps = [c for c, _ in rows]
        assert len(comps) == len(set(comps)) == 2 ** (p - 1), p
        assert sorted(comps) == sorted(compositions(p)), p
        assert all(v == f_value(c) for c, v in rows), p


def test_walk_fields_wider_than_64_bits():
    # 21! > 2**64, so total 20 is the first whose packed fields are sized
    # wider than 8 bytes, and decoded one field at a time
    rows = dict(f_walk(20))
    assert len(rows) == 2**19
    assert sum(rows.values()) == factorial(21) // 2
    for comp in [(1,) * 20, (1, 2) + (1,) * 17]:
        assert rows[comp] == f_value(comp), comp


# structural properties ---------------------------------------------------------

def test_single_blocks_count_one():
    assert all(f_value((m,)) == 1 for m in range(1, 11))
    assert f_value((10**6,)) == 1


@given(comps)
def test_multi_block_values_exceed_one(c):
    if len(c) >= 2:
        assert f_value(c) > 1


@given(comps)
@settings(max_examples=60)
def test_reversal_invariance(c):
    memo = MemoTable()
    assert f_value(c, memo) == f_value(c[::-1], memo)


def test_two_block_identity_small_grid():
    memo = MemoTable()
    for m in range(1, 9):
        for n in range(1, 9):
            assert f_value((m, n), memo) == f_two_block(m, n)
    assert f_value((200, 200), memo) == f_two_block(200, 200)
    assert f_value((1, 10**5), memo) == f_two_block(1, 10**5)


def test_end_block_values_in_closed_form():
    # the DP sums the last block by the hockey-stick identity; without it
    # (8000, 8000) costs 64 million additions of numbers up to 4815 digits
    assert f_value((8000, 8000)) == comb(16000, 8000)
    assert f_value((1, 3000)) == 3001
    # an end block past the index range builds no vector of its length
    assert f_value((10**20, 1)) == f_value((1, 10**20)) == 10**20 + 1

    # Independent of the DP: choose the two values outside the long run.
    # The last two go in ascending, which fails only when they are the top two.
    def closed_form(a):
        return comb(a + 3, 2) - 1

    memo = MemoTable()
    for a in range(1, 12):
        assert f_recurrence((a, 1, 1), memo) == f_recurrence((1, 1, a), memo) == closed_form(a)
    for a in (10**7, 10**20):
        assert f_value((a, 1, 1)) == f_value((1, 1, a)) == closed_form(a)


def test_interior_run_values_in_closed_form():
    # Independent of the DP: choose the two end values around the long run.
    # They fail when the first is above the run or the last below it: 2a + 5
    # of the (a + 3)(a + 2) choices.
    def closed_form(a):
        return (a + 1) * (a + 2) - 1

    memo = MemoTable()
    for a in range(1, 12):
        assert f_recurrence((1, a, 1), memo) == closed_form(a)
    for a in [*range(1, 200), 500, 1000, 2000]:
        assert f_value((1, a, 1)) == closed_form(a)


def test_f_two_block_is_the_binomial():
    assert f_two_block(3, 4) == 35
    assert f_two_block(1, 1) == 2
    assert f_two_block(12, 3) == comb(15, 3) == 455
    with pytest.raises(ValueError):
        f_two_block(0, 3)


def test_sum_over_compositions_is_half_factorial():
    memo = MemoTable()
    for p in range(2, 9):
        total = sum(f_value(c, memo) for c in compositions(p))
        assert total == factorial(p + 1) // 2, p


def test_all_ones_match_alternating_permutation_counts():
    zigzag = boustrophedon_counts(301)
    memo = MemoTable()
    for p in range(1, 301):
        assert f_value((1,) * p, memo) == zigzag[p + 1], p


def test_palindromic_even_length_values_are_even():
    memo = MemoTable()
    for total in range(2, 11, 2):
        for half in compositions(total // 2):
            c = half + half[::-1]
            assert f_value(c, memo) % 2 == 0, c


def test_rejects_non_compositions():
    for bad in [(), (0,), (1, 0), (-1,), (1, -2)]:
        with pytest.raises(UndefinedType):
            f_value(bad)
        with pytest.raises(UndefinedType):
            f_recurrence(bad)


# determinism ---------------------------------------------------------------------

def test_value_independent_of_evaluation_order_and_memo_seeding():
    targets = list(compositions(9))
    fresh = {c: f_value(c) for c in targets}

    shared = MemoTable()
    assert {c: f_value(c, shared) for c in targets} == fresh

    rng = random.Random(7)
    shuffled = targets[:]
    rng.shuffle(shuffled)
    warm = MemoTable()
    for c in shuffled[: len(shuffled) // 2]:
        f_value(c, warm)
    assert {c: f_value(c, warm) for c in targets} == fresh


# memo table ------------------------------------------------------------------------

def test_memo_shares_reversed_keys():
    memo = MemoTable()
    f_value((1, 2), memo)
    assert MemoTable.canonical((2, 1)) in memo.entries
    assert f_value((2, 1), memo) == 3
    assert len(memo) == 1


def test_stored_values_satisfy_the_recurrence():
    from pathcensus.types import derive_children

    memo = MemoTable()
    f_recurrence((2, 3, 2), memo)
    assert len(memo) > 1
    for key, value in memo.entries.items():
        if len(key) == 1:
            assert value == 1
        else:
            assert value == sum(
                memo.entries[MemoTable.canonical(ch)] for ch in derive_children(key)
            )

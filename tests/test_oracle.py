"""Vertex-order census: builders, tallies, invariants."""

from itertools import groupby, permutations, product
from math import comb, factorial

import pytest
from hypothesis import given, strategies as st

from pathcensus import oracle
from pathcensus.analysis import tt_count
from pathcensus.engine import f_walk
from pathcensus.errors import OutOfRange, TheoremViolation, TooLarge
from pathcensus.oracle import (
    census,
    complement,
    count_type,
    make_nearly_transitive,
    make_random,
    make_tournament,
    make_transitive,
)
from pathcensus.types import canonical_key, compositions, is_symmetric, negate, signed_lift


@st.composite
def tournaments(draw, min_n=3, max_n=7):
    """Any orientation of K_n, one drawn flag per pair."""
    n = draw(st.integers(min_n, max_n))
    pairs = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    flips = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return make_tournament(n, [(j, i) if f else (i, j) for (i, j), f in zip(pairs, flips)])


def arcs(t):
    return [(i, j) for i in range(1, t.n + 1) for j in range(1, t.n + 1) if t.beats(i, j)]


# builders -------------------------------------------------------------------

def test_transitive_arcs():
    for n in (2, 3, 5):
        t = make_transitive(n)
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                assert t.beats(i, j) == (i < j)


def test_transitive_rejects_tiny_order():
    with pytest.raises(OutOfRange, match="needs at least 2 vertices, got 1"):
        make_transitive(1)


def test_nearly_transitive_reverses_the_long_arc():
    t = make_nearly_transitive(4)
    assert t.beats(4, 1) and not t.beats(1, 4)
    assert t.beats(1, 2) and t.beats(2, 3) and t.beats(3, 4)
    for n in range(3, 11):  # and no other arc differs from the transitive one
        flipped = {(1, n), (n, 1)}
        assert set(arcs(make_nearly_transitive(n))) ^ set(arcs(make_transitive(n))) == flipped
    with pytest.raises(OutOfRange, match="needs at least 3 vertices, got 2"):
        make_nearly_transitive(2)


def test_beats_rejects_labels_outside_one_to_n():
    # label 0 or -1 would otherwise index the last vertex's mask
    t = make_transitive(4)
    for i, j in ((0, 1), (1, 0), (-1, 2), (5, 1), (1, 5)):
        with pytest.raises(ValueError):
            t.beats(i, j)


def test_make_tournament_validates():
    t = make_tournament(3, [(1, 2), (2, 3), (3, 1)])
    assert t.beats(3, 1)
    with pytest.raises(ValueError):
        make_tournament(3, [(1, 2), (2, 1), (2, 3)])
    with pytest.raises(ValueError):
        make_tournament(3, [(1, 2)])
    with pytest.raises(ValueError):
        make_tournament(3, [(1, 1), (1, 3), (2, 3)])


def test_make_tournament_refuses_labels_that_are_not_int():
    for bad in ((1.0, 2), ("1", 2), (True, 2)):
        with pytest.raises(ValueError, match=r"^bad arc \(.*\) for order 3$"):
            make_tournament(3, [bad, (1, 3), (2, 3)])
        with pytest.raises(ValueError, match=r"^bad arc \(.*\) for order 3$"):
            make_tournament(3, [(1, 3), (2, 3), bad[::-1]])


def test_complement_is_an_involution():
    t = make_random(6, seed=3)
    assert complement(complement(t)) == t


def test_complement_of_three_cycle_is_a_three_cycle():
    cycle = make_tournament(3, [(1, 2), (2, 3), (3, 1)])
    back = complement(cycle)
    assert back.beats(1, 3) and back.beats(2, 1) and back.beats(3, 2)
    assert not (back.beats(3, 1) or back.beats(1, 2) or back.beats(2, 3))


def test_complement_of_transitive_has_equal_census():
    # the reversed transitive order is transitive again
    t = make_transitive(5)
    assert census(complement(t)).counts == census(t).counts


def test_make_random_is_deterministic():
    a = make_random(5, seed=0)
    b = make_random(5, seed=0)
    assert a == b
    assert a != make_random(5, seed=1)


@pytest.mark.parametrize("seed", [None, 1.5, True])
def test_make_random_refuses_a_seed_that_is_not_an_int(seed):
    # None would seed from the operating system, a new tournament per call
    with pytest.raises(ValueError, match=f"^seed must be an int, got {seed!r}$"):
        make_random(4, seed)


def test_make_random_is_complete():
    for seed in range(5):
        t = make_random(6, seed)
        for i in range(1, 7):
            for j in range(i + 1, 7):
                assert t.beats(i, j) != t.beats(j, i)
                assert not t.beats(i, i)


def test_make_random_stream_is_stable():
    # pairs in lexicographic order, one Mersenne-Twister bit each
    assert arcs(make_random(6, 3)) == [
        (1, 3), (1, 4), (2, 1), (2, 3), (2, 4), (2, 6), (3, 4), (3, 6),
        (4, 6), (5, 1), (5, 2), (5, 3), (5, 4), (5, 6), (6, 1),
    ]


@given(tournaments())
def test_complement_reverses_every_arc(t):
    c = complement(t)
    for i in range(1, t.n + 1):
        assert not c.beats(i, i)
        for j in range(1, t.n + 1):
            if i != j:
                assert c.beats(i, j) == t.beats(j, i)


@pytest.mark.parametrize(
    "t",
    [
        oracle.Tournament(3, (7, 7, 7)),
        make_transitive(3)._replace(out=(6, 4, 1)),
        oracle.Tournament(3, (6, 4)),
        oracle.Tournament(3, (6, 4, 0, 0)),
        oracle.Tournament(3.0, (6, 4, 0)),
        oracle.Tournament(3, (6.0, 4, 0)),
        oracle.Tournament(3, (6, 4, False)),
        oracle.Tournament("3", (6, 4, 0)),
        oracle.Tournament(True, (0,)),
    ],
    ids=[
        "every_vertex_beats_all_and_itself",
        "pair_oriented_twice",
        "mask_short",
        "mask_over",
        "order_not_int",
        "mask_not_int",
        "mask_bool",
        "order_str",
        "order_bool",
    ],
)
def test_census_and_complement_refuse_masks_make_tournament_did_not_build(t):
    with pytest.raises(ValueError, match="not a tournament"):
        census(t)
    with pytest.raises(ValueError, match="not a tournament"):
        complement(t)
    with pytest.raises(ValueError, match="not a tournament"):
        count_type(t, (2,))


# census ----------------------------------------------------------------------

def test_census_of_tt3_exactly():
    assert census(make_transitive(3)).counts == {
        (2,): 1,
        (1, -1): 1,
        (-1, 1): 1,
    }


@given(tournaments())
def test_census_total_is_half_factorial(t):
    assert census(t).total() == factorial(t.n) // 2


def test_census_tt5_symmetric_two_block():
    c = census(make_transitive(5))
    assert c.counts[canonical_key((2, -2))] == 3


def test_census_rejects_small_and_huge_orders():
    with pytest.raises(OutOfRange, match="census needs at least 3 vertices, got 2"):
        census(make_transitive(2))
    with pytest.raises(TooLarge, match="census of order 11 exceeds the limit 10"):
        census(make_transitive(11))


def enumerated_counts(t):
    """Per-type path counts from every vertex permutation, one at a time."""
    raw = {}
    for order in permutations(range(1, t.n + 1)):
        entries = []
        for u, v in zip(order, order[1:]):
            step = 1 if t.beats(u, v) else -1
            if entries and (entries[-1] > 0) == (step > 0):
                entries[-1] += step
            else:
                entries.append(step)
        key = canonical_key(entries)
        raw[key] = raw.get(key, 0) + 1
    assert all(value % 2 == 0 for value in raw.values())
    return {key: value // 2 for key, value in raw.items()}


def enumerated_words(t):
    """Per-word order counts from every vertex permutation, one at a time:
    entry w counts the orders whose word is w (bit i set iff arc i ascends)."""
    counts = [0] * 2 ** (t.n - 1)
    for order in permutations(range(1, t.n + 1)):
        counts[sum(t.beats(u, v) << i for i, (u, v) in enumerate(zip(order, order[1:])))] += 1
    return counts


@pytest.mark.parametrize("n", range(3, 9))
def test_census_matches_plain_enumeration(n):
    family = [make_transitive(n), make_nearly_transitive(n)]
    family += [make_random(n, seed) for seed in (0, 1, 7)]
    for t in family + [complement(t) for t in family]:
        assert census(t).counts == enumerated_counts(t)


def test_order_counts_of_transitive_words_are_the_path_function():
    # in the transitive tournament an arc ascends iff its labels increase, so
    # word w counts the permutations with that up/down word: F of its runs
    for n in range(3, 12):
        values = dict(f_walk(n - 1))
        for word, orders in enumerate(oracle._order_counts(make_transitive(n))):
            letters = format(word, f"0{n - 1}b")[::-1]  # arc 0 first
            assert orders == values[tuple(len(list(run)) for _, run in groupby(letters))], (n, word)


@pytest.mark.parametrize("n", range(3, 8))
def test_order_counts_match_plain_enumeration_word_by_word(n):
    family = [make_transitive(n), make_nearly_transitive(n)]
    family += [make_random(n, seed) for seed in (0, 1, 7)]
    for t in family + [complement(t) for t in family]:
        assert oracle._order_counts(t) == enumerated_words(t), t


@pytest.mark.parametrize("n", (11, 12))
def test_census_past_the_limit(n):
    expected = {}
    for comp in compositions(n - 1):
        for lead in (True, False):
            key = canonical_key(signed_lift(comp, lead))
            expected[key] = tt_count(n, key)
    assert census(make_transitive(n), limit=None).counts == expected

    t = make_random(n, seed=n)
    c = census(t, limit=None)
    assert c.total() == factorial(n) // 2
    assert c.counts == census(complement(t), limit=None).counts

    nearly = census(make_nearly_transitive(n), limit=None).counts
    assert nearly[canonical_key((n - 1,))] == 2 ** (n - 2) + 1


# count_type -------------------------------------------------------------------

def test_directed_path_is_unique_in_transitive():
    for n in range(3, 8):
        assert count_type(make_transitive(n), (n - 1,)) == 1


def test_nearly_transitive_directed_counts():
    # 2^(n-2) + 1 directed paths once the extreme arc flips
    assert count_type(make_nearly_transitive(4), (3,)) == 5
    assert count_type(make_nearly_transitive(5), (4,)) == 9
    assert count_type(make_nearly_transitive(3), (2,)) == 3


def test_two_block_count_is_a_binomial():
    assert count_type(make_transitive(4), (2, -1)) == comb(3, 2)


def test_count_type_rejects_order_mismatch():
    with pytest.raises(OutOfRange, match="total block length 2, need 3"):
        count_type(make_transitive(4), (1, -1))


def test_count_type_zero_for_absent_type():
    cycle = make_tournament(3, [(1, 2), (2, 3), (3, 1)])
    assert count_type(cycle, (1, -1)) == 0  # no path reverses in a 3-cycle


# cross-tournament invariants -----------------------------------------------------

@given(tournaments())
def test_complement_invariance_on_random_instances(t):
    counts, of_complement = census(t).counts, census(complement(t)).counts
    assert of_complement == counts
    assert of_complement == {canonical_key(negate(k)): v for k, v in counts.items()}


def test_complement_invariance_and_partition_at_n8():
    t = make_random(8, seed=0)
    c = census(t)
    assert c.total() == factorial(8) // 2
    of_complement = census(complement(t)).counts
    assert of_complement == c.counts
    assert of_complement == {canonical_key(negate(k)): v for k, v in c.counts.items()}


def test_self_duality_of_transitive():
    c = census(make_transitive(6)).counts
    for key, value in c.items():
        assert c[canonical_key(tuple(-e for e in key))] == value


def test_antidirected_balance():
    # both antidirected starters appear equally often in any tournament
    for n in (5, 7):
        plus = signed_lift((1,) * (n - 1), True)
        minus = signed_lift((1,) * (n - 1), False)
        for t in (make_nearly_transitive(n), make_random(n, seed=n)):
            c = census(t).counts
            assert c.get(canonical_key(plus), 0) == c.get(canonical_key(minus), 0)


def test_every_accumulated_count_was_even():
    # census would raise if a word's orders did not pair off with its
    # mirror's; run a few shapes
    for seed in range(3):
        census(make_random(5, seed))


def test_census_refuses_a_word_unlike_its_mirror(monkeypatch):
    # words 0 (down, down) and 3 (up, up) are mirrors: 1 order against 2
    monkeypatch.setattr(oracle, "_order_counts", lambda t: [1, 2, 0, 2])
    with pytest.raises(TheoremViolation, match=r"^word 00: 1 orders, its mirror 2$"):
        census(make_transitive(3))


def test_census_refuses_an_odd_symmetric_word(monkeypatch):
    # words 1 (up, down) and 2 (down, up) are their own mirrors: 3 orders
    # cannot pair off by reversal
    monkeypatch.setattr(oracle, "_order_counts", lambda t: [0, 3, 2, 0])
    with pytest.raises(TheoremViolation, match=r"^odd count 3 for the symmetric word 10$"):
        census(make_transitive(3))


def test_word_parity_and_presence_on_every_tournament_of_orders_4_and_5():
    # Cited, not proved here: Forcade (1973) gives each up/down word's order
    # count one parity over all tournaments of an order; Havet and Thomassé
    # (2000) find every path type in every tournament, except antidirected
    # ones at orders 3, 5 and 7.  At order 5 the exception is the regular
    # tournament, whose 24 labellings each lack a type.
    for n, lacking in ((4, 0), (5, 24)):
        tt = make_transitive(n)
        parity = [orders % 2 for orders in oracle._order_counts(tt)]
        keys = census(tt).counts.keys()
        pairs = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
        missing = 0
        for flips in product((False, True), repeat=len(pairs)):
            t = make_tournament(n, [(j, i) if f else (i, j) for (i, j), f in zip(pairs, flips)])
            assert [orders % 2 for orders in oracle._order_counts(t)] == parity, t
            missing += not keys <= census(t).counts.keys()
        assert missing == lacking, n


@given(tournaments(max_n=8))
def test_word_and_type_parity_match_the_transitive_tournament_to_order_8(t):
    # Cited, not proved here: by Forcade (1973) each word's order count has
    # one parity over all tournaments of an order.  A non-symmetric type's
    # count is the order count of either of its words, so its parity is the
    # transitive one; a symmetric type's count is half of one, so it varies.
    tt = make_transitive(t.n)
    parity = [orders % 2 for orders in oracle._order_counts(tt)]
    assert [orders % 2 for orders in oracle._order_counts(t)] == parity
    counts = census(t).counts
    for key in census(tt).counts:
        if not is_symmetric(key):
            assert counts.get(key, 0) % 2 == tt_count(t.n, key) % 2, key


def test_tournament_is_hashable_and_frozen():
    t = make_transitive(4)
    assert isinstance(hash(t), int)
    with pytest.raises(AttributeError):
        t.n = 5

"""Tuple algebra: reduction, symmetry, canonical keys, child derivation."""

from collections.abc import Iterator, Sequence

import pytest
from hypothesis import given, strategies as st

from pathcensus.errors import OutOfRange, ParseError
from pathcensus.types import (
    _unpack,
    canonical_key,
    compositions,
    derive_children,
    format_entries,
    is_symmetric,
    negate,
    parse_composition,
    parse_signed_type,
    reverse,
    signed_lift,
    unsigned,
)

# strategies ---------------------------------------------------------------

comps = st.lists(st.integers(1, 5), min_size=1, max_size=6).map(tuple)
signed = st.tuples(comps, st.booleans()).map(lambda t: signed_lift(t[0], t[1]))


def all_signed_types(max_total):
    for total in range(1, max_total + 1):
        for comp in compositions(total):
            yield signed_lift(comp, True)
            yield signed_lift(comp, False)


# the paper's signed-tuple zero reduction, kept here as the reference that
# pins derive_children, the recurrence's step to a composition's children:
# the property suite's `recurrence` family and the tests' f_recurrence
# reference step with it, and no library code needs normalize itself

def normalize(entries: Sequence[int]) -> tuple[int, ...]:
    """Reduce away zero entries.

    Zeros at either end are dropped; an interior zero is replaced by merging
    its two neighbours (which carry the same sign in an alternating tuple).
    Repeats until no zero remains.

    Raises :class:`ParseError` if the tuple reduces to nothing.
    """
    t = list(entries)
    while t:
        if t[0] == 0:
            del t[0]
            continue
        if t[-1] == 0:
            del t[-1]
            continue
        try:
            i = t.index(0)
        except ValueError:
            break
        t[i - 1 : i + 2] = [t[i - 1] + t[i + 1]]
    if not t:
        raise ParseError("type tuple reduced to nothing; value undefined")
    return tuple(t)


def derive_signed_children(
    a: Sequence[int], *, reduce: bool = True
) -> list[tuple[int, ...]]:
    """Move each entry one unit toward zero, one slot at a time.

    With ``reduce=True`` (default) every child is zero-reduced via
    :func:`normalize`; with ``reduce=False`` the raw tuples are returned,
    each containing at most one zero.
    """
    a = tuple(a)
    out = []
    for i, e in enumerate(a):
        step = -1 if e > 0 else 1
        raw = a[:i] + (e + step,) + a[i + 1 :]
        out.append(normalize(raw) if reduce else raw)
    return out


# normalize ----------------------------------------------------------------

def test_normalize_drops_leading_zero():
    assert normalize((0, 2, 1)) == (2, 1)


def test_normalize_merges_interior_zero():
    assert normalize((1, 0, 1)) == (2,)


def test_normalize_drops_trailing_zero():
    assert normalize((2, 1, 0)) == (2, 1)


def test_normalize_signed_merge_keeps_sign():
    assert normalize((2, 0, 2)) == (4,)
    assert normalize((-1, 0, -2)) == (-3,)


@pytest.mark.parametrize("bad", [(), (0,), (0, 0), (0, 0, 0)])
def test_normalize_undefined_on_nothing(bad):
    with pytest.raises(ParseError, match="reduced to nothing"):
        normalize(bad)


@given(st.lists(st.integers(-3, 3), min_size=1, max_size=7))
def test_normalize_is_a_projection(raw):
    try:
        once = normalize(raw)
    except ParseError:
        return
    assert normalize(once) == once
    assert 0 not in once


# reverse / negate ---------------------------------------------------------

def test_reverse_examples():
    assert reverse((1, 2, 3)) == (3, 2, 1)
    assert reverse((2,)) == (2,)
    assert reverse((1, -2, 1)) == (1, -2, 1)


def test_negate_examples():
    assert negate((1, -1)) == (-1, 1)
    assert negate((2, -1, 2)) == (-2, 1, -2)


@given(signed)
def test_negate_is_an_involution(a):
    assert negate(negate(a)) == a


@given(signed)
def test_reverse_is_an_involution(a):
    assert reverse(reverse(a)) == a


# symmetry and path-set identity -------------------------------------------

def test_is_symmetric_examples():
    assert is_symmetric((1, -1))
    assert is_symmetric((2, -1, 1, -2))
    assert not is_symmetric((1, -2, 1))


@given(signed)
def test_symmetric_implies_even_length(a):
    if is_symmetric(a):
        assert len(a) % 2 == 0


def test_same_path_set_examples():
    assert canonical_key((1, -2)) == canonical_key((2, -1))
    assert canonical_key((1, -2)) == canonical_key((1, -2))
    assert canonical_key((1, -2)) != canonical_key((-1, 2))


def test_canonical_key_examples():
    assert canonical_key((2, -1)) == (1, -2)
    assert canonical_key((1, -1)) == (1, -1)
    # positive direction wins for a single directed block
    assert canonical_key((2,)) == (2,)
    assert canonical_key((-2,)) == (2,)
    # both antidirected starters are symmetric, hence distinct fixed points
    assert canonical_key((-1, 1)) == (-1, 1)


@given(signed)
def test_canonical_key_idempotent(a):
    k = canonical_key(a)
    assert canonical_key(k) == k


@given(signed)
def test_same_path_set_means_same_key(a):
    b = negate(reverse(a))
    assert canonical_key(a) == canonical_key(b)


@given(signed, signed)
def test_distinct_path_sets_get_distinct_keys(a, b):
    if b not in (a, negate(reverse(a))):
        assert canonical_key(a) != canonical_key(b)


# child derivation ----------------------------------------------------------

def test_derive_children_examples():
    assert derive_children((2, 1)) == [(1, 1), (2,)]
    assert derive_children((1, 1, 1)) == [(1, 1), (2,), (1, 1)]
    assert derive_children((1, 2)) == [(2,), (1, 1)]


def test_derive_children_of_unit_block_is_undefined():
    with pytest.raises(OutOfRange, match="single block of length 1 has no children"):
        derive_children((1,))


@given(comps)
def test_derive_children_matches_normalize_of_raw_decrement(c):
    if c == (1,):
        return
    got = derive_children(c)
    want = [
        normalize(c[:i] + (c[i] - 1,) + c[i + 1 :]) for i in range(len(c))
    ]
    assert got == want


@given(signed)
def test_signed_children_stay_alternating(a):
    if a in ((1,), (-1,)):
        return
    for child in derive_signed_children(a):
        assert all(e != 0 for e in child)
        assert all(x * y < 0 for x, y in zip(child, child[1:]))


def test_signed_children_reduce_flag():
    raw = derive_signed_children((1, -1), reduce=False)
    assert raw == [(0, -1), (1, 0)]
    assert derive_signed_children((1, -1)) == [(-1,), (1,)]


# exhaustive structural facts about decrement slots -------------------------

def test_mirror_slots_collide_exactly_for_symmetric_tuples():
    # normalized children i and j coincide under negate-reverse iff the
    # parent is symmetric and the slots mirror each other (i + j = s + 1)
    for a in all_signed_types(7):
        if len(a) < 2:
            continue
        kids = derive_signed_children(a)
        s = len(a)
        sym = is_symmetric(a)
        for i in range(s):
            for j in range(i + 1, s):
                eq = kids[i] == negate(reverse(kids[j]))
                assert eq == (sym and (i + 1) + (j + 1) == s + 1), (a, i, j)


def test_at_most_one_raw_child_is_symmetric():
    for a in all_signed_types(7):
        if len(a) < 2:
            continue
        raw = derive_signed_children(a, reduce=False)
        symmetric_slots = [k for k in raw if k == negate(reverse(k))]
        assert len(symmetric_slots) <= 1, (a, raw)


# lifts ----------------------------------------------------------------------

@given(comps, st.booleans())
def test_signed_lift_roundtrip(c, lead):
    a = signed_lift(c, lead)
    assert unsigned(a) == c
    assert (a[0] > 0) == lead
    assert all(x * y < 0 for x, y in zip(a, a[1:]))


# compositions ----------------------------------------------------------------

# a recursive enumerator, kept here as the reference that pins the order of
# compositions: largest first entry first, the rest likewise

def _compositions(total: int) -> Iterator[tuple[int, ...]]:
    if total == 0:
        yield ()
        return
    for first in range(total, 0, -1):
        for rest in _compositions(total - first):
            yield (first,) + rest


def test_compositions_order_matches_the_recursive_reference():
    for p in range(1, 15):
        got = compositions(p)
        assert got == list(_compositions(p)), p
        assert got == sorted(got, reverse=True), p


@pytest.mark.parametrize("p", [1, 2, 3, 6, 9])
def test_compositions_complete(p):
    seen = list(compositions(p))
    assert len(seen) == 2 ** (p - 1)
    assert len(set(seen)) == len(seen)
    assert all(sum(c) == p and min(c) >= 1 for c in seen)
    assert seen[0] == (p,)


def test_compositions_rejects_nonpositive():
    with pytest.raises(ValueError):
        list(compositions(0))


@pytest.mark.parametrize("total", [64, 10**20])
def test_compositions_refuses_a_total_past_the_index_range(total):
    # 2**63 compositions pass sys.maxsize on 64-bit: refused before any is made
    with pytest.raises(OutOfRange, match=rf"total must be 1\.\.\d+, got {total}"):
        compositions(total)


# packed fields ------------------------------------------------------------------

def pack(fields, nbytes):
    return sum(f << (8 * nbytes * w) for w, f in enumerate(fields))


# 8 bytes takes the one-call branch, every other width the sliced one
@pytest.mark.parametrize("nbytes", range(1, 10))
@pytest.mark.parametrize("count", [1, 2, 4, 8, 256])
def test_unpack_keeps_empty_and_full_neighbours_apart(nbytes, count):
    # a field at 0 beside one at 2^(8·nbytes) - 1, both ways round: a carry
    # or a slice shifted by one byte changes some field; 1 beside full - 1
    # also changes under a reversed byte order
    full = (1 << 8 * nbytes) - 1
    for low, high in [(0, full), (full, 0), (1, full - 1)]:
        fields = [high if w % 2 else low for w in range(count)]
        got = _unpack(pack(fields, nbytes), count, nbytes)
        assert type(got) is list
        assert got == fields, (nbytes, count, low)


@given(st.integers(1, 9), st.data())
def test_unpack_inverts_packing(nbytes, data):
    fields = data.draw(st.lists(st.integers(0, (1 << 8 * nbytes) - 1), min_size=1, max_size=40))
    assert _unpack(pack(fields, nbytes), len(fields), nbytes) == fields


# parsing ----------------------------------------------------------------------

def test_parse_composition():
    assert parse_composition("1,2,1") == (1, 2, 1)
    assert parse_composition(" 7 ") == (7,)
    assert parse_composition("+3,1") == (3, 1)


@pytest.mark.parametrize("bad", ["", "1,,2", "1,x", "0,1", "1,-2", "-1"])
def test_parse_composition_rejects(bad):
    with pytest.raises(ParseError):
        parse_composition(bad)


def test_parse_signed_type():
    assert parse_signed_type("1,-2,1") == (1, -2, 1)
    assert parse_signed_type("+1,-1") == (1, -1)


@pytest.mark.parametrize("bad", ["", "1,0,1", "1,2", "-1,-2", "1,-2,-1", "a,-1"])
def test_parse_signed_type_rejects(bad):
    with pytest.raises(ParseError):
        parse_signed_type(bad)


@given(signed)
def test_format_parse_roundtrip(a):
    assert parse_signed_type(format_entries(a)) == a

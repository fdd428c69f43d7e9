"""Block-signature algebra for oriented path types.

An oriented path is described by the lengths of its maximal directed blocks.
A *signed type* lists those lengths with alternating signs (the sign gives
each block's direction); dropping the signs leaves a *composition*, an
ordered tuple of strictly positive integers.  Both are represented as plain
``tuple[int, ...]``.

The same set of arcs can be enumerated from either end of a path, so a
signed type ``a`` and ``negate(reverse(a))`` describe the same path set;
:func:`canonical_key` picks one fixed representative of that pair for use as
a dictionary key.
"""

import struct
import sys
from collections.abc import Sequence

from .errors import OutOfRange, ParseError

__all__ = [
    "reverse",
    "negate",
    "is_symmetric",
    "canonical_key",
    "derive_children",
    "compositions",
    "signed_lift",
    "unsigned",
    "check_composition",
    "check_signed_type",
    "parse_composition",
    "parse_signed_type",
    "format_entries",
]


def reverse(a: Sequence[int]) -> tuple[int, ...]:
    """Entries in reverse order."""
    return tuple(a)[::-1]


def negate(a: Sequence[int]) -> tuple[int, ...]:
    """Every entry sign-flipped."""
    return tuple(-e for e in a)


def is_symmetric(a: Sequence[int]) -> bool:
    """True iff ``a`` equals the negation of its reversal.

    A symmetric type reads the same from either end of its paths, so each of
    its paths is met twice when enumerating vertex orders.  Implies even
    length for alternating tuples.
    """
    a = tuple(a)
    return a == negate(reverse(a))


def _entry_rank(e: int) -> tuple[int, int]:
    # magnitude first, positive before negative: 1 < -1 < 2 < -2 < ...
    return (abs(e), 0 if e > 0 else 1)


def canonical_key(a: Sequence[int]) -> tuple[int, ...]:
    """Fixed representative of the pair {a, negate(reverse(a))}.

    The smaller tuple wins under entrywise magnitude-then-positive-first
    order, so e.g. ``(2,)`` beats ``(-2,)`` and ``(1, -2)`` beats ``(2, -1)``.
    Idempotent, and equal for any two types with the same path set.
    """
    a = tuple(a)
    b = negate(reverse(a))
    return a if [_entry_rank(e) for e in a] <= [_entry_rank(e) for e in b] else b


def derive_children(c: Sequence[int]) -> list[tuple[int, ...]]:
    """Single-step decrements of a composition, zero-reduced, in slot order.

    This is the branching step of the counting recurrence: entry ``i`` drops
    by one; a resulting zero is dropped at the ends or merges its neighbours.
    """
    c = tuple(c)
    last = len(c) - 1
    out = []
    for i, e in enumerate(c):
        if e > 1:
            out.append(c[:i] + (e - 1,) + c[i + 1 :])
        elif last == 0:
            raise OutOfRange("single block of length 1 has no children")
        elif i == 0:
            out.append(c[1:])
        elif i == last:
            out.append(c[:-1])
        else:
            out.append(c[: i - 1] + (c[i - 1] + c[i + 1],) + c[i + 2 :])
    return out


def unsigned(a: Sequence[int]) -> tuple[int, ...]:
    """Absolute values of the entries (signed type -> composition)."""
    return tuple(abs(e) for e in a)


def signed_lift(c: Sequence[int], leading_positive: bool = True) -> tuple[int, ...]:
    """Alternating-sign tuple over the given block lengths."""
    sign = 1 if leading_positive else -1
    out = []
    for e in c:
        out.append(sign * e)
        sign = -sign
    return tuple(out)


def _check_total(total: int) -> None:
    # a total's 2**(total-1) compositions must fit the machine's index range
    if not 1 <= total <= sys.maxsize.bit_length():
        raise OutOfRange(f"total must be 1..{sys.maxsize.bit_length()}, got {total}")


def _unpack(packed: int, count: int, nbytes: int) -> list[int]:
    """The ``count`` fields of ``nbytes`` bytes each in ``packed``, lowest
    first.

    Both packed DPs, the engine's walk over every composition of a total
    and the oracle's census over every up/down word, hold one count per
    word in one big integer: field ``w`` is bits ``8·nbytes·w`` to
    ``8·nbytes·(w + 1) - 1``, little-endian.  They step by shifts, sums,
    small multiples and differences of whole packed integers, and each
    difference takes from every field at most what that field holds, so
    no field ever borrows from the next.  Nor does one carry into the
    next, as long as each count fits its field: the walk's counts are at
    most (p+1)! and the census's at most n!, and each DP sizes its fields
    to hold that bound.  So every field decoded here is exactly its word's
    count.  Eight-byte fields decode in one ``struct`` call, whatever the
    host's byte order; other widths one slice at a time.
    """
    data = packed.to_bytes(count * nbytes, "little")
    if nbytes == 8:
        return list(struct.unpack(f"<{count}Q", data))
    return [int.from_bytes(data[i : i + nbytes], "little") for i in range(0, len(data), nbytes)]


def compositions(total: int) -> list[tuple[int, ...]]:
    """All ordered tuples of positive integers summing to ``total`` (there
    are ``2**(total-1)``), in descending lexicographic order: ``(total,)``
    first, the all-ones tuple last."""
    _check_total(total)
    comps = [(1,)]
    for _ in range(total - 1):
        # one more unit: each composition with its first entry grown, then
        # each with a 1 put in front; both keep the order, and a grown first
        # entry exceeds 1
        comps = [(c[0] + 1,) + c[1:] for c in comps] + [(1,) + c for c in comps]
    return comps


def _parse_entries(text: str) -> tuple[int, ...]:
    parts = text.split(",")
    entries = []
    for part in parts:
        token = part.strip()
        try:
            entries.append(int(token))
        except ValueError:
            raise ParseError(f"not an integer entry: {token!r}") from None
    return tuple(entries)


def check_composition(c: Sequence[int]) -> tuple[int, ...]:
    """``c`` as a tuple, once it is nonempty and every entry is a positive
    ``int``; raises :class:`ParseError` otherwise."""
    c = tuple(c)
    if not c:
        raise ParseError("path-function of the empty tuple is undefined")
    for e in c:
        if type(e) is not int:
            raise ParseError(f"not an integer entry: {e!r}")
        if e < 1:
            raise ParseError(f"block lengths must be positive, got {e}")
    return c


def check_signed_type(a: Sequence[int]) -> tuple[int, ...]:
    """``a`` as a tuple, once every entry is a nonzero ``int`` and
    consecutive entries have opposite signs; raises :class:`ParseError`
    otherwise."""
    a = tuple(a)
    for e in a:
        if type(e) is not int:
            raise ParseError(f"not an integer entry: {e!r}")
        if e == 0:
            raise ParseError("zero entries are not allowed in a signed type")
    for x, y in zip(a, a[1:]):
        if x * y > 0:
            raise ParseError(f"signs must alternate: {x} followed by {y}")
    return a


def _check_type_order(a: Sequence[int], n: int) -> tuple[int, ...]:
    # a signed type whose blocks hold the n - 1 arcs of a path on n vertices
    a = check_signed_type(a)
    if (total := sum(abs(e) for e in a)) != n - 1:
        raise OutOfRange(f"type {a} has total block length {total}, need {n - 1}")
    return a


def parse_composition(text: str) -> tuple[int, ...]:
    """Parse ``"1,2,1"`` into a composition.  Rejects zeros and negatives."""
    return check_composition(_parse_entries(text))


def parse_signed_type(text: str) -> tuple[int, ...]:
    """Parse ``"1,-2,1"`` into a signed type.

    Entries may carry an optional leading ``+``.  Zeros are rejected, and
    consecutive entries must have opposite signs.
    """
    return check_signed_type(_parse_entries(text))


def format_entries(a: Sequence[int]) -> str:
    """Comma-separated text form, the inverse of the parsers."""
    return ",".join(str(e) for e in a)

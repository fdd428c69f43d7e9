"""Exact evaluation of the path-function on compositions.

The path-function maps a composition ``(a_1, ..., a_s)`` to the sum of its
values over the ``s`` children obtained by decrementing one entry (with zero
entries reduced away), and equals 1 on a single block.  Its value is the
number of permutations of ``1..p+1`` whose up/down signature has run lengths
``a_1, ..., a_s``; those values count oriented Hamiltonian paths per type in
transitive tournaments and outgrow 64-bit range quickly, so everything here
is exact Python integers.

:func:`f_value` counts those permutations with the rank DP of Niven and de
Bruijn ("Permutations with given ups and downs"): one vector entry per rank
of the last element placed, one prefix-sum pass per step, O(p^2) additions
at most.  The two end blocks cost no passes: the shorter is built in closed
form, and the longer is summed in one go by the hockey-stick identity, so a
two-block type is that sum's one binomial term.  :func:`f_walk` runs the
same DP on every up/down word of length ``p`` at once, the counts of all
words packed into fixed-width fields of one integer per rank: a word of
length p has run lengths of total p, so one pass that extends every word a
letter per level, O(p^2) big-integer steps, values every composition of ``p``.
:func:`f_recurrence` evaluates the defining recurrence on an explicit stack;
it is exponential and kept as the independent reference the tests compare
the DP against.
Results are cached in memory only, under the key ``min(c, reversed(c))``:
the function is invariant under reversal, so one stored entry answers both
orientations.
"""

import sys
from collections.abc import Iterator
from itertools import accumulate
from math import comb, factorial

from .errors import OutOfRange, UndefinedType
from .types import derive_children

__all__ = ["MemoTable", "f_value", "f_walk", "f_recurrence", "f_two_block"]


class MemoTable:
    """Reversal-sharing cache of path-function results.

    ``entries`` maps ``canonical(c)`` to the value of ``c``.  A table may be
    shared freely: any writer inserts the same value for a key.
    """

    __slots__ = ("entries",)

    def __init__(self) -> None:
        self.entries: dict[tuple[int, ...], int] = {}

    @staticmethod
    def canonical(c: tuple[int, ...]) -> tuple[int, ...]:
        r = c[::-1]
        return c if c <= r else r

    def __len__(self) -> int:
        return len(self.entries)


def _composition(c) -> tuple[int, ...]:
    comp = tuple(c)
    if not comp:
        raise UndefinedType("path-function of the empty tuple is undefined")
    for e in comp:
        if not isinstance(e, int) or e < 1:
            raise UndefinedType(f"not a composition: {comp}")
    return comp


def _rank_dp(comp: tuple[int, ...]) -> int:
    # x[j] counts the prefixes whose last element has rank j among those
    # placed so far, ranks read in the direction of the current block, so
    # every step is the same prefix sum and a new block reverses x.  The
    # first block is built in closed form, a vector of its length, and the
    # last is summed with no vector; so the DP starts from the shorter end,
    # and two blocks are the sum's one term C(m + n, n).
    if len(comp) == 1:
        return 1
    if comp[-1] < comp[0]:
        comp = comp[::-1]
    # x ends with one entry per element placed before the last block
    if sum(comp) - comp[-1] >= sys.maxsize:
        raise OutOfRange(
            f"type too large: its rank vector would pass {sys.maxsize} entries"
        )
    x = [0] * comp[0] + [1]
    for block in comp[1:-1]:
        x.reverse()
        for _ in range(block):
            x = [0, *accumulate(x)]
    # b more steps, then the sum: by the hockey-stick identity x[j] is
    # counted C(j + b, b) times (j read before the last block's reversal)
    b = comp[-1]
    return sum(v * comb(j + b, b) for j, v in enumerate(x) if v)


def f_value(c, memo: MemoTable | None = None) -> int:
    """Exact path-function value of a composition, by the rank DP.

    Pass a shared ``memo`` to reuse results across calls.  The result does
    not depend on evaluation order or on what the memo already contains.
    """
    comp = _composition(c)
    if memo is None:
        return _rank_dp(comp)
    key = memo.canonical(comp)
    value = memo.entries.get(key)
    if value is None:
        value = memo.entries[key] = _rank_dp(comp)
    return value


def f_walk(p: int) -> Iterator[tuple[tuple[int, ...], int]]:
    """``(composition, value)`` for every composition of ``p``, each
    exactly once: ``2**(p-1)`` of them.

    The rank DP run on every up/down word at once, one word length k per
    level: entry ``i`` of the level's vector packs, one fixed-width field per
    word that starts with an ascent, the count of permutations of
    ``1..k+1`` with that word whose last element has rank ``i``.  Field
    ``w`` is the word whose letter ``j >= 1`` ascends when bit ``j - 1`` of
    ``w`` is set, so a shift, an add and a subtraction per entry extend
    every word by both letters, and the vector's sum holds every value of
    total k.  Rows come in word order.  Live state is one level: its vector
    of k+1 packed integers and its compositions.
    """
    if p < 1:
        raise OutOfRange(f"total must be positive, got {p}")
    # a field never carries, as no count exceeds (p+1)!; at least 8 bytes,
    # so up to p = 19 a level's fields decode in one cast
    size = max(8, (factorial(p + 1).bit_length() + 7) // 8)
    x, comps, total = [0, 1], [(1,)], 1
    for k in range(1, p):
        # x[i] becomes the sum of x[:i+1]; the last entry is the level's sum
        for i in range(1, k + 1):
            x[i] += x[i - 1]
        total = x[-1]
        # rank i of the next level: letter k ascends (into the upper half of
        # the fields) from the u = sum(x[:i]) that end below i, and descends
        # from the total - u that end at or above it; the last level is only
        # summed, and the sum of its k+2 values of u is sum(x)
        shift = (8 * size) << (k - 1)
        if k + 1 < p:
            x = [total, *[(u << shift) + total - u for u in x]]
        else:
            u = sum(x)
            total = (u << shift) + (k + 2) * total - u
            del x, u  # the last level's rows need none of the DP
        comps = _next_words(comps)
    yield from zip(comps, _fields(total, p, size))


def _fields(packed: int, k: int, size: int) -> list[int]:
    # the 2**(k-1) fields of size bytes each, lowest first
    data = packed.to_bytes(size << (k - 1), "little")
    if size == 8 and sys.byteorder == "little":
        return memoryview(data).cast("Q").tolist()
    return [int.from_bytes(data[i : i + size], "little") for i in range(0, len(data), size)]


def _next_words(comps: list) -> list:
    # the compositions of the words one letter longer: the new letter
    # descends in the lower half and ascends in the upper, and extends the
    # last block when it repeats the last letter, which descends in the
    # lower half of comps and ascends in the upper (in all of a lone (1,))
    half = len(comps) // 2
    down, up = comps[:half], comps[half:]
    return [
        *[c[:-1] + (c[-1] + 1,) for c in down],
        *[c + (1,) for c in up],
        *[c + (1,) for c in down],
        *[c[:-1] + (c[-1] + 1,) for c in up],
    ]


def f_recurrence(c, memo: MemoTable | None = None) -> int:
    """Path-function value from the defining recurrence (reference route).

    Walks an explicit stack instead of recursing, so the composition total
    never threatens the interpreter stack, and stores every intermediate
    composition in ``memo``.  Exponential in the total; the tests compare
    :func:`f_value` and :func:`f_walk` against it.
    """
    comp = _composition(c)
    if memo is None:
        memo = MemoTable()

    entries = memo.entries
    canonical = MemoTable.canonical
    stack = [comp]
    while stack:
        cur = stack[-1]
        key = canonical(cur)
        if key in entries:
            stack.pop()
            continue
        if len(cur) == 1:
            entries[key] = 1
            stack.pop()
            continue
        children = derive_children(cur)
        todo = [ch for ch in children if canonical(ch) not in entries]
        if todo:
            stack.extend(todo)
        else:
            entries[key] = sum(entries[canonical(ch)] for ch in children)
            stack.pop()
    return entries[canonical(comp)]


def f_two_block(m: int, n: int) -> int:
    """Closed form for two-block values: ``C(m+n, m)``.

    The recurrence never uses it, so ``f_recurrence((m, n)) ==
    f_two_block(m, n)`` is a genuine cross-check.  For two blocks the rank
    DP's hockey-stick sum has this same binomial as its one term, so
    against :func:`f_value` the identity checks nothing.
    """
    if m < 1 or n < 1:
        raise OutOfRange(f"block lengths must be positive, got ({m}, {n})")
    return comb(m + n, m)

"""Exact evaluation of the path-function on compositions.

The path-function maps a composition ``(a_1, ..., a_s)`` to the sum of its
values over the ``s`` children obtained by decrementing one entry (with zero
entries reduced away), and equals 1 on a single block.  Its value is the
number of permutations of ``1..p+1`` whose up/down signature has run lengths
``a_1, ..., a_s``; those values count oriented Hamiltonian paths per type in
transitive tournaments and outgrow 64-bit range quickly, so everything here
is exact Python integers.

Those permutations are counted by the rank DP of Niven and de Bruijn
("Permutations with given ups and downs"), one vector entry per rank of the
last element placed and one prefix-sum pass per step, in three forms.
:func:`f_value` values one composition in O(p^2) additions at most, with
both end blocks in closed form.  :func:`f_walk` values every composition of
``p`` at once, in ascending order, by O(p^2) steps on integers that pack
one field per composition.  The pruned walk ``_top_compositions`` yields
the compositions that can reach a floor, depth first: by the split identity
the completions of a word w of total k sum to C(p+1, k+1)·F(w)·F(u) over
the junction letter, and a word whose bound C(p+1, k+1)·F(w)·(largest value
at total p-k-1) falls short of the floor is dropped with its subtree.
:func:`f_recurrence` evaluates the defining recurrence on an explicit stack;
it is exponential and kept as the independent reference the tests compare
the DP against.
Results are cached in memory only, in a :class:`MemoTable`: a dict with
one entry for a composition and its reversal, as the function is invariant
under reversal.
"""

import sys
from collections.abc import Iterator
from itertools import accumulate
from math import comb, factorial

from .errors import OutOfRange
from .types import _check_total, check_composition, compositions, derive_children

__all__ = ["MemoTable", "f_value", "f_walk", "f_recurrence", "f_two_block"]


class MemoTable(dict):
    """Cache of path-function results: a dict in which the value of a
    composition ``c`` is stored under ``min(c, reversed(c))``, as the
    function is invariant under reversal.  A table may be shared freely:
    any writer stores the same value for a key.
    """


def _key(c: tuple[int, ...]) -> tuple[int, ...]:
    r = c[::-1]
    return c if c <= r else r


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
    comp = check_composition(c)
    if memo is None:
        return _rank_dp(comp)
    key = _key(comp)
    value = memo.get(key)
    if value is None:
        value = memo[key] = _rank_dp(comp)
    return value


def f_walk(p: int) -> Iterator[tuple[tuple[int, ...], int]]:
    """``(composition, value)`` for every composition of ``p``, each
    exactly once: ``2**(p-1)`` of them, in ascending composition order.

    The rank DP of :func:`f_value` run on every up/down word that starts
    with an ascent at once, one word length k per level, ranks read in the
    direction of the current block: entry ``i`` of the level's vector
    packs, one fixed-width field per word, the count of permutations of
    ``1..k+1`` with that word whose last element has rank ``i``.  Field
    ``w`` records where the blocks end: letter ``j >= 1`` continues its
    block when bit ``j - 1`` of ``w`` is set and starts a new one when it
    is clear.  So a shift, an add and a subtraction per entry extend every
    word both ways, and the vector's sum holds every value of total k.
    The last letter is the top bit, so the fields in order belong to the
    reversed compositions in ascending order; F(c) = F(reversed c) makes
    them the values of the compositions in ascending order.
    """
    _check_total(p)
    # a field never carries, as no count exceeds (p+1)!; at least 8 bytes,
    # so up to p = 19 a level's fields decode in one cast
    size = max(8, (factorial(p + 1).bit_length() + 7) // 8)
    x, total = [0, 1], 1
    for k in range(1, p):
        # x becomes u, u[i] = sum(x[:i]); the last entry is the level's sum
        x = [0, *accumulate(x)]
        total = x[-1]
        # rank i of the next level: a letter that continues the block (the
        # upper half of the fields) follows the u[i] prefixes that end below
        # rank i, and one that starts a block, whose ranks read the other
        # way, the total - u[k+1-i] that end at rank k+1-i or above; the
        # last level is only summed, and reversed(u) sums to sum(u)
        shift = (8 * size) << (k - 1)
        if k + 1 < p:
            x = [(a << shift) + total - b for a, b in zip(x, reversed(x))]
        else:
            u = sum(x)
            total = (u << shift) + (k + 2) * total - u
            del x, u  # freed before the compositions are built
    return zip(reversed(compositions(p)), _fields(total, p, size))


def _fields(packed: int, k: int, size: int) -> list[int]:
    # the 2**(k-1) fields of size bytes each, lowest first
    data = packed.to_bytes(size << (k - 1), "little")
    if size == 8 and sys.byteorder == "little":
        return memoryview(data).cast("Q").tolist()
    return [int.from_bytes(data[i : i + size], "little") for i in range(0, len(data), size)]


def _top_compositions(p, floor, best):
    # (composition, value) for every composition of p whose value reaches
    # floor, and some below it: a depth-first rank DP over the up/down words,
    # where a node of total k < p expands only if its completions' bound
    # reaches floor (ties survive)
    stack = [((1,), [0, 1])]
    while stack:
        comp, x = stack.pop()
        k, value = len(x) - 1, sum(x)
        if k == p:
            yield comp, value
        elif comb(p + 1, k + 1) * value * best[p - k - 1] >= floor:
            stack.append((comp[:-1] + (comp[-1] + 1,), [0, *accumulate(x)]))
            stack.append((comp + (1,), [0, *accumulate(reversed(x))]))


def f_recurrence(c, memo: MemoTable | None = None) -> int:
    """Path-function value from the defining recurrence (reference route).

    Walks an explicit stack instead of recursing, so the composition total
    never threatens the interpreter stack, and stores every intermediate
    composition in ``memo``.  Exponential in the total; the tests compare
    :func:`f_value` and :func:`f_walk` against it.
    """
    comp = check_composition(c)
    if memo is None:
        memo = MemoTable()
    stack = [comp]
    while stack:
        cur = stack[-1]
        key = _key(cur)
        if key in memo:
            stack.pop()
            continue
        if len(cur) == 1:
            memo[key] = 1
            stack.pop()
            continue
        children = derive_children(cur)
        todo = [ch for ch in children if _key(ch) not in memo]
        if todo:
            stack.extend(todo)
        else:
            memo[key] = sum(memo[_key(ch)] for ch in children)
            stack.pop()
    return memo[_key(comp)]


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

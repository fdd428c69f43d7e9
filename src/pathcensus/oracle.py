"""Ground truth on small tournaments, by counting vertex orders.

A tournament is a complete orientation of K_n on vertices 1..n, held as one
out-neighbour bitmask per vertex: the census reads each vertex's in-arcs
off those masks, and :meth:`Tournament.beats` reads one arc.  Each builder lists its
arcs, and :func:`make_tournament`, the one constructor, checks them and
builds the masks; the census and :func:`complement` read the arcs back and
refuse masks that it would not build.  Every vertex order traces a
Hamiltonian oriented path, whose type is read off the up/down word of its
arcs.  The census counts all n! orders at once with a Held–Karp subset DP
that pulls each (vertex set, last vertex) count from the set without that
vertex, one integer packing every word's count in the fields that
:func:`types._unpack` decodes (see :func:`_order_counts`).
Read backwards, an order's word becomes its mirror, the reversed
complement, so the census keys each path once: the orders of the smaller
word of a pair go to the canonical key of the type that ``signed_lift``
builds from its run lengths, once the pair's counts agree, and a word that
is its own mirror has its even count halved.

Everything here is independent of the path-function engine on purpose: the
two routes to the same counts check each other.
"""

import random
from itertools import compress, groupby
from math import factorial
from typing import NamedTuple

from .errors import OutOfRange, TheoremViolation, TooLarge
from .types import _check_type_order, _unpack, canonical_key, signed_lift

__all__ = [
    "CENSUS_LIMIT",
    "Tournament",
    "TypeCensus",
    "make_tournament",
    "make_transitive",
    "make_nearly_transitive",
    "make_random",
    "complement",
    "census",
    "count_type",
]

# order 10 (10·2^9 packed pulls) takes ≈8 ms, order 12 ≈50 ms (2 vCPU,
# Python 3.11); the work keeps growing ≈2.5× per order past it, so larger
# orders need --force
CENSUS_LIMIT = 10


class Tournament(NamedTuple):
    """Complete orientation of K_n on vertices 1..n, as out-neighbour
    bitmasks: bit ``j - 1`` of ``out[i - 1]`` is set iff arc i -> j."""

    n: int
    out: tuple[int, ...]

    def beats(self, i: int, j: int) -> bool:
        if not (1 <= i <= self.n and 1 <= j <= self.n):
            raise ValueError(f"vertex labels run 1..{self.n}, got ({i}, {j})")
        return bool(self.out[i - 1] >> (j - 1) & 1)


def _pairs(n: int) -> list[tuple[int, int]]:
    """Every pair i < j of 1..n, in lexicographic order."""
    return [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]


def make_tournament(n: int, winners) -> Tournament:
    """Build a tournament from an explicit arc list ``(winner, loser)``.

    Labels are ``int`` in 1..n, and every unordered pair must be oriented
    exactly once.
    """
    if n < 2:
        raise OutOfRange(f"a tournament needs at least 2 vertices, got {n}")
    out = [0] * n
    for i, j in winners:
        if type(i) is not int or type(j) is not int or not (1 <= i <= n and 1 <= j <= n) or i == j:
            raise ValueError(f"bad arc ({i}, {j}) for order {n}")
        if (out[i - 1] >> (j - 1) | out[j - 1] >> (i - 1)) & 1:
            raise ValueError(f"pair {(min(i, j), max(i, j))} oriented twice")
        out[i - 1] |= 1 << (j - 1)
    if missing := n * (n - 1) // 2 - sum(row.bit_count() for row in out):
        raise ValueError(f"{missing} pairs left unoriented")
    return Tournament(n, tuple(out))


def make_transitive(n: int) -> Tournament:
    """The transitive tournament: i beats j iff i < j."""
    return make_tournament(n, _pairs(n))


def make_nearly_transitive(n: int) -> Tournament:
    """Transitive orientation with the single arc (1, n) reversed to (n, 1)."""
    if n < 3:
        raise OutOfRange(f"nearly-transitive needs at least 3 vertices, got {n}")
    return make_tournament(n, [(n, 1) if pair == (1, n) else pair for pair in _pairs(n)])


def make_random(n: int, seed: int) -> Tournament:
    """Uniformly random orientation, a pure function of ``(n, seed)``.

    Pairs are visited in lexicographic order and oriented by one bit from a
    Mersenne-Twister stream seeded with ``seed``.  Python promises a stable
    seeded ``random()`` only, not ``getrandbits``, so
    ``tests/test_oracle.py::test_make_random_stream_is_stable`` pins this
    stream; CI runs it on Python 3.10 to 3.13.  A seed must be an ``int``
    (not a ``bool``): ``random.Random(None)`` would seed from the operating
    system, a different tournament on every call.
    """
    if type(seed) is not int:
        raise ValueError(f"seed must be an int, got {seed!r}")
    rng = random.Random(seed)
    return make_tournament(n, [(i, j) if rng.getrandbits(1) else (j, i) for i, j in _pairs(n)])


def _arcs(t: Tournament) -> list[tuple[int, int]]:
    # each pair's arc in _pairs order, once make_tournament builds t from them
    if type(t.n) is int and len(t.out) == t.n and all(type(row) is int for row in t.out):
        arcs = [(i, j) if t.beats(i, j) else (j, i) for i, j in _pairs(t.n)]
        if make_tournament(t.n, arcs) == t:
            return arcs
    raise ValueError(f"not a tournament: {t}")


def complement(t: Tournament) -> Tournament:
    """Every arc reversed; an involution."""
    return make_tournament(t.n, [(j, i) for i, j in _arcs(t)])


class TypeCensus(NamedTuple):
    """Per-type path tally of one tournament, keyed by canonical type."""

    counts: dict[tuple[int, ...], int]

    def total(self) -> int:
        return sum(self.counts.values())


def _order_counts(t: Tournament) -> list[int]:
    """Number of vertex orders of ``t`` with each up/down word: entry ``w``
    of the 2^(n-1) counts is word ``w`` (bit i set iff arc i ascends).

    A subset DP over vertex sets, one layer of sets per size, that packs
    every word into one integer: each set S holds a row of n ints whose
    entry v counts, in field ``w``, the orders of S that end at v and have
    word ``w`` (the layout of :func:`types._unpack`, each field just wide
    enough for n!).  Adding v to S at arc k pulls every order of S at once:
    those ending at a vertex that beats v ascend, so their sum moves up by
    ``width << k``, and the rest keep their fields.  That is n·2^(n-1)
    (set, vertex) pairs, each summing at most n - 1 entries of one row.
    """
    n = t.n
    nbytes = (factorial(n).bit_length() + 7) // 8
    width = 8 * nbytes
    into = [[row >> v & 1 for row in t.out] for v in range(n)]  # into[v][u]: arc u+1 -> v+1
    ends = {1 << v: [int(u == v) for u in range(n)] for v in range(n)}
    for k in range(n - 1):  # two layers live: sets of k + 1 and k + 2 vertices
        shift = width << k
        nxt: dict[int, list[int]] = {}
        for seen, row in ends.items():
            total = sum(row)
            for v in range(n):
                if not seen >> v & 1:
                    up = sum(compress(row, into[v]))
                    nxt.setdefault(seen | 1 << v, [0] * n)[v] = (up << shift) + total - up
        ends = nxt
    return _unpack(sum(ends[(1 << n) - 1]), 1 << (n - 1), nbytes)


def census(t: Tournament, *, limit: int | None = CENSUS_LIMIT) -> TypeCensus:
    """Count every Hamiltonian oriented path of ``t``, grouped by type.

    Keys each path once, under the signed type of the smaller of its two
    words in :func:`_order_counts`, read forwards and backwards; a word that
    is its own mirror meets each path twice, so its count is halved.  The
    total equals n!/2.
    """
    _arcs(t)
    n = t.n
    if n < 3:
        raise OutOfRange(f"census needs at least 3 vertices, got {n}")
    if limit is not None and n > limit:
        raise TooLarge(f"census of order {n} exceeds the limit {limit}")

    counts: dict[tuple[int, ...], int] = {}
    for word, count in enumerate(orders := _order_counts(t)):
        letters = format(word, f"0{n - 1}b")[::-1]  # arc 0 first
        mirror = int(letters, 2) ^ (1 << n - 1) - 1  # each order read backwards
        if word == mirror and count % 2:
            raise TheoremViolation(f"odd count {count} for the symmetric word {letters}")
        if word < mirror and count != orders[mirror]:
            raise TheoremViolation(f"word {letters}: {count} orders, its mirror {orders[mirror]}")
        if count and word <= mirror:
            runs = [len(list(run)) for _, run in groupby(letters)]
            key = canonical_key(signed_lift(runs, bool(word & 1)))
            counts[key] = count if word < mirror else count // 2
    return TypeCensus(counts=counts)


def count_type(t: Tournament, a, *, limit: int | None = CENSUS_LIMIT) -> int:
    """Number of Hamiltonian oriented paths of type ``a`` in ``t``; a tuple
    that is not a signed type raises :class:`ParseError`."""
    _arcs(t)
    a = _check_type_order(a, t.n)
    return census(t, limit=limit).counts.get(canonical_key(a), 0)

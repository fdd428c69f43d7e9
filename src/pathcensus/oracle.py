"""Ground truth on small tournaments, by counting vertex orders.

A tournament is a complete orientation of K_n on vertices 1..n, held as
one out-neighbour bitmask per vertex: the census steps on those masks as
they are, and :meth:`Tournament.beats` reads one arc.  Every vertex order
traces a Hamiltonian oriented path, whose type is read off the up/down word
of its arcs.  The census counts all n! orders at once with a
Held–Karp subset DP over (visited set, last vertex) states; each state holds
one integer that packs the counts of every up/down word into fixed-width
fields (see :func:`_tally`), so the DP costs n(n-1)·2^(n-2) big-int adds.
The orders are then tallied by the canonical type key of their word.  Each
path is met exactly twice (once per direction) and both meetings land on
the same canonical key, so raw tallies are halved after an evenness check.

Everything here is independent of the path-function engine on purpose: the
two routes to the same counts check each other.
"""

import random
from math import factorial
from typing import NamedTuple

from .errors import OutOfRange, TheoremViolation, TooLarge
from .types import canonical_key, check_signed_type

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

# order 10 (10·9·2^8 packed adds) takes ≈0.03 s, order 12 ≈0.15 s; the work
# keeps growing ≈2.5× per order past it, so larger orders need --force
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


def make_tournament(n: int, winners) -> Tournament:
    """Build a tournament from an explicit arc list ``(winner, loser)``.

    Every unordered pair must be oriented exactly once.
    """
    if n < 2:
        raise OutOfRange(f"a tournament needs at least 2 vertices, got {n}")
    out = [0] * n
    seen = set()
    for i, j in winners:
        if not (1 <= i <= n and 1 <= j <= n) or i == j:
            raise ValueError(f"bad arc ({i}, {j}) for order {n}")
        pair = (min(i, j), max(i, j))
        if pair in seen:
            raise ValueError(f"pair {pair} oriented twice")
        seen.add(pair)
        out[i - 1] |= 1 << (j - 1)
    if len(seen) != n * (n - 1) // 2:
        raise ValueError(f"{n * (n - 1) // 2 - len(seen)} pairs left unoriented")
    return Tournament(n, tuple(out))


def make_transitive(n: int) -> Tournament:
    """The transitive tournament: i beats j iff i < j."""
    if n < 2:
        raise OutOfRange(f"a tournament needs at least 2 vertices, got {n}")
    return Tournament(n, tuple((1 << n) - (1 << i) for i in range(1, n + 1)))


def make_nearly_transitive(n: int) -> Tournament:
    """Transitive orientation with the single arc (1, n) reversed to (n, 1)."""
    if n < 3:
        raise OutOfRange(f"nearly-transitive needs at least 3 vertices, got {n}")
    out = list(make_transitive(n).out)
    out[0] ^= 1 << (n - 1)
    out[n - 1] ^= 1
    return Tournament(n, tuple(out))


def make_random(n: int, seed: int) -> Tournament:
    """Uniformly random orientation, a pure function of ``(n, seed)``.

    Pairs are visited in lexicographic order and oriented by one bit from a
    Mersenne-Twister stream seeded with ``seed``.  Python promises a stable
    seeded ``random()`` only, not ``getrandbits``, so
    ``tests/test_oracle.py::test_make_random_stream_is_stable`` pins this
    stream; CI runs it on Python 3.10, 3.11 and 3.12.
    """
    if n < 2:
        raise OutOfRange(f"a tournament needs at least 2 vertices, got {n}")
    rng = random.Random(seed)
    out = [0] * n
    for i in range(n):  # 0-based here: vertex i + 1 is bit 1 << i
        for j in range(i + 1, n):
            if rng.getrandbits(1):
                out[i] |= 1 << j
            else:
                out[j] |= 1 << i
    return Tournament(n, tuple(out))


def complement(t: Tournament) -> Tournament:
    """Every arc reversed; an involution."""
    everyone = (1 << t.n) - 1
    # each vertex now beats everyone it lost to, and still not itself
    return Tournament(t.n, tuple(everyone ^ row ^ (1 << v) for v, row in enumerate(t.out)))


class TypeCensus(NamedTuple):
    """Per-type path tally of one tournament, keyed by canonical type."""

    counts: dict[tuple[int, ...], int]

    def total(self) -> int:
        return sum(self.counts.values())


def _tally(t: Tournament) -> dict[tuple[int, ...], int]:
    """Raw tallies of all n! vertex orders, keyed by canonical type.

    A subset DP over states (visited mask, last vertex) that packs every
    up/down word into one integer: field ``w`` of a state's int, ``width``
    bits wide, holds the number of vertex orders reaching that state whose
    word is ``w`` (bit i set iff arc i ascends).  Extending by one vertex
    at arc k adds the parent's int to the child, shifted by ``width << k``
    when the arc ascends, so one big-int add carries every word at once:
    n(n-1)·2^(n-2) adds in all.  Every field counts fewer than n! orders
    and is wide enough to hold n!, so no field ever carries into the next.
    """
    n = t.n
    # vertex v is bit 1 << (v - 1); beats[v] is its out-neighbour mask, padded
    # at 0 so states keep the label bit.bit_length() with no per-state shift
    beats = (0, *t.out)
    everyone = (1 << n) - 1
    nbytes = (factorial(n).bit_length() + 7) // 8
    width = 8 * nbytes
    frontier = {(1 << (v - 1), v): 1 for v in range(1, n + 1)}
    for k in range(n - 1):  # two layers live: states with k + 1 and k + 2 vertices
        shift = width << k
        nxt: dict[tuple[int, int], int] = {}
        for (mask, last), packed in frontier.items():
            up = packed << shift
            wins = beats[last]
            rest = everyone & ~mask
            while rest:
                bit = rest & -rest
                rest ^= bit
                state = (mask | bit, bit.bit_length())
                nxt[state] = nxt.get(state, 0) + (up if wins & bit else packed)
        frontier = nxt

    raw = sum(frontier.values()).to_bytes(nbytes << (n - 1), "little")
    counts: dict[tuple[int, ...], int] = {}
    for word in range(1 << (n - 1)):
        orders = int.from_bytes(raw[word * nbytes : (word + 1) * nbytes], "little")
        if not orders:
            continue
        entries: list[int] = []
        for i in range(n - 1):
            step = 1 if word >> i & 1 else -1
            if entries and (entries[-1] > 0) == (step > 0):
                entries[-1] += step
            else:
                entries.append(step)
        key = canonical_key(entries)
        counts[key] = counts.get(key, 0) + orders
    return counts


def census(t: Tournament, *, limit: int | None = CENSUS_LIMIT) -> TypeCensus:
    """Count every Hamiltonian oriented path of ``t``, grouped by type.

    Tallies all n! vertex orders in one process by a packed subset DP
    (see :func:`_tally`), then halves each tally.  The total equals n!/2.
    """
    n = t.n
    if n < 3:
        raise OutOfRange(f"census needs at least 3 vertices, got {n}")
    if limit is not None and n > limit:
        raise TooLarge(f"census of order {n} exceeds the limit {limit}")

    counts = {}
    for key, value in _tally(t).items():
        if value % 2:
            raise TheoremViolation(
                f"odd tally {value} for type {key} before halving"
            )
        counts[key] = value // 2
    return TypeCensus(counts=counts)


def count_type(t: Tournament, a, *, limit: int | None = CENSUS_LIMIT) -> int:
    """Number of Hamiltonian oriented paths of type ``a`` in ``t``; a tuple
    that is not a signed type raises :class:`ParseError`."""
    a = check_signed_type(a)
    total = sum(abs(e) for e in a)
    if total != t.n - 1:
        raise OutOfRange(f"type {a} has total block length {total}, need {t.n - 1}")
    return census(t, limit=limit).counts.get(canonical_key(a), 0)

"""Brute-force ground truth on small tournaments.

A tournament is a complete orientation of K_n on vertices 1..n.  The census
enumerates every vertex permutation, reads off the block signature of the
walk it traces, and tallies the results by canonical type key.  Each path is
met exactly twice (once per enumeration direction) and both meetings land on
the same canonical key, so raw tallies are halved after an evenness check.

Everything here is independent of the recurrence engine on purpose: the two
routes to the same counts check each other.
"""

import random
from dataclasses import dataclass
from itertools import permutations

from .errors import (
    InvalidOrder,
    OrderTooLarge,
    ParseError,
    TheoremViolation,
    TypeOrderMismatch,
)
from .types import canonical_key

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
    "tournament_to_text",
    "tournament_from_text",
]

# 10! = 3.6M permutations is where a pure-Python census stops being pleasant
CENSUS_LIMIT = 10


@dataclass(frozen=True)
class Tournament:
    """Complete orientation of K_n; ``wins[i][j]`` means arc i -> j.

    The matrix is (n+1) x (n+1) with row/column 0 unused, so vertex labels
    are 1..n throughout.
    """

    n: int
    wins: tuple[tuple[bool, ...], ...]

    def beats(self, i: int, j: int) -> bool:
        return self.wins[i][j]

    def arcs(self) -> list[tuple[int, int]]:
        """All arcs (winner, loser) in lexicographic order."""
        return sorted(
            (i, j)
            for i in range(1, self.n + 1)
            for j in range(1, self.n + 1)
            if self.wins[i][j]
        )


def _freeze(matrix: list[list[bool]]) -> tuple[tuple[bool, ...], ...]:
    return tuple(tuple(row) for row in matrix)


def make_tournament(n: int, winners) -> Tournament:
    """Build a tournament from an explicit arc list ``(winner, loser)``.

    Every unordered pair must be oriented exactly once.
    """
    if n < 2:
        raise InvalidOrder(f"a tournament needs at least 2 vertices, got {n}")
    matrix = [[False] * (n + 1) for _ in range(n + 1)]
    seen = set()
    for i, j in winners:
        if not (1 <= i <= n and 1 <= j <= n) or i == j:
            raise ValueError(f"bad arc ({i}, {j}) for order {n}")
        pair = (min(i, j), max(i, j))
        if pair in seen:
            raise ValueError(f"pair {pair} oriented twice")
        seen.add(pair)
        matrix[i][j] = True
    if len(seen) != n * (n - 1) // 2:
        raise ValueError(f"{n * (n - 1) // 2 - len(seen)} pairs left unoriented")
    return Tournament(n, _freeze(matrix))


def make_transitive(n: int) -> Tournament:
    """The transitive tournament: i beats j iff i < j."""
    if n < 2:
        raise InvalidOrder(f"a tournament needs at least 2 vertices, got {n}")
    matrix = [[0 < i < j for j in range(n + 1)] for i in range(n + 1)]
    return Tournament(n, _freeze(matrix))


def make_nearly_transitive(n: int) -> Tournament:
    """Transitive orientation with the single arc (1, n) reversed to (n, 1)."""
    if n < 3:
        raise InvalidOrder(f"nearly-transitive needs at least 3 vertices, got {n}")
    matrix = [list(row) for row in make_transitive(n).wins]
    matrix[1][n] = False
    matrix[n][1] = True
    return Tournament(n, _freeze(matrix))


def make_random(n: int, seed: int) -> Tournament:
    """Uniformly random orientation, a pure function of ``(n, seed)``.

    Pairs are visited in lexicographic order and oriented by one bit from a
    Mersenne-Twister stream seeded with ``seed`` (the stdlib generator, whose
    seeded output is stable across releases).
    """
    if n < 2:
        raise InvalidOrder(f"a tournament needs at least 2 vertices, got {n}")
    rng = random.Random(seed)
    matrix = [[False] * (n + 1) for _ in range(n + 1)]
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            if rng.getrandbits(1):
                matrix[i][j] = True
            else:
                matrix[j][i] = True
    return Tournament(n, _freeze(matrix))


def complement(t: Tournament) -> Tournament:
    """Every arc reversed; an involution."""
    matrix = [
        [t.wins[j][i] for j in range(t.n + 1)] for i in range(t.n + 1)
    ]
    return Tournament(t.n, _freeze(matrix))


@dataclass(frozen=True)
class TypeCensus:
    """Per-type path tally of one tournament, keyed by canonical type."""

    order: int
    counts: dict[tuple[int, ...], int]

    def total(self) -> int:
        return sum(self.counts.values())


def _tally(t: Tournament, firsts) -> dict[tuple[int, ...], int]:
    """Raw per-enumeration tallies over permutations starting in ``firsts``."""
    n = t.n
    wins = t.wins
    counts: dict[tuple[int, ...], int] = {}
    canon_cache: dict[tuple[int, ...], tuple[int, ...]] = {}
    rest = list(range(1, n + 1))
    for first in firsts:
        others = [v for v in rest if v != first]
        for perm in permutations(others):
            entries = []
            run = 0
            u = first
            for v in perm:
                step = 1 if wins[u][v] else -1
                if run == 0 or (run > 0) == (step > 0):
                    run += step
                else:
                    entries.append(run)
                    run = step
                u = v
            entries.append(run)
            raw = tuple(entries)
            key = canon_cache.get(raw)
            if key is None:
                key = canon_cache[raw] = canonical_key(raw)
            counts[key] = counts.get(key, 0) + 1
    return counts


def _tally_worker(args) -> dict[tuple[int, ...], int]:
    t, first = args
    return _tally(t, [first])


def census(t: Tournament, *, limit: int | None = CENSUS_LIMIT, jobs: int = 1) -> TypeCensus:
    """Count every Hamiltonian oriented path of ``t``, grouped by type.

    Enumerates all n! vertex orders (split over ``jobs`` workers by first
    vertex; the merged result is identical to a single-threaded run), then
    halves each tally.  The total equals n!/2.
    """
    n = t.n
    if n < 3:
        raise InvalidOrder(f"census needs at least 3 vertices, got {n}")
    if limit is not None and n > limit:
        raise OrderTooLarge(f"census of order {n} exceeds the limit {limit}")

    firsts = list(range(1, n + 1))
    if jobs > 1:
        from multiprocessing import Pool

        merged: dict[tuple[int, ...], int] = {}
        with Pool(min(jobs, n)) as pool:
            for part in pool.imap(_tally_worker, [(t, f) for f in firsts]):
                for key, value in part.items():
                    merged[key] = merged.get(key, 0) + value
        raw = merged
    else:
        raw = _tally(t, firsts)

    counts = {}
    for key, value in raw.items():
        if value % 2:
            raise TheoremViolation(
                f"odd tally {value} for type {key} before halving"
            )
        counts[key] = value // 2
    return TypeCensus(order=n, counts=counts)


def count_type(t: Tournament, a, *, limit: int | None = CENSUS_LIMIT) -> int:
    """Number of Hamiltonian oriented paths of type ``a`` in ``t``."""
    a = tuple(a)
    total = sum(abs(e) for e in a)
    if total != t.n - 1:
        raise TypeOrderMismatch(
            f"type {a} has total block length {total}, need {t.n - 1}"
        )
    return census(t, limit=limit).counts.get(canonical_key(a), 0)


def tournament_to_text(t: Tournament) -> str:
    """Text form: first line n, then one ``i j`` line per arc (i beats j),
    in lexicographic order."""
    lines = [str(t.n)]
    lines.extend(f"{i} {j}" for i, j in t.arcs())
    return "\n".join(lines) + "\n"


def tournament_from_text(text: str) -> Tournament:
    """Inverse of :func:`tournament_to_text`; validates completeness."""
    lines = [ln for ln in (raw.strip() for raw in text.splitlines()) if ln]
    if not lines:
        raise ParseError("empty tournament text")
    try:
        n = int(lines[0])
    except ValueError:
        raise ParseError(f"line 1: bad vertex count {lines[0]!r}") from None
    winners = []
    for lineno, line in enumerate(lines[1:], start=2):
        parts = line.split()
        if len(parts) != 2:
            raise ParseError(f"line {lineno}: expected 'i j', got {line!r}")
        try:
            winners.append((int(parts[0]), int(parts[1])))
        except ValueError:
            raise ParseError(f"line {lineno}: bad arc {line!r}") from None
    try:
        return make_tournament(n, winners)
    except (ValueError, InvalidOrder) as exc:
        raise ParseError(f"inconsistent tournament text: {exc}") from exc

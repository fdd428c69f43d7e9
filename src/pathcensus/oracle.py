"""Ground truth on small tournaments, by counting vertex orders.

A tournament is a complete orientation of K_n on vertices 1..n.  Every
vertex order traces a Hamiltonian oriented path, whose type is read off the
up/down word of its arcs.  The census counts all n! orders word by word
(orders that trace the same word are counted together, see :func:`_tally`)
and tallies them by canonical type key.  Each path is met exactly twice
(once per direction) and both meetings land on the same canonical key, so
raw tallies are halved after an evenness check.

Everything here is independent of the path-function engine on purpose: the
two routes to the same counts check each other.
"""

import random
from dataclasses import dataclass

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

# order 10 (10! vertex orders over 2^9 words) takes a fraction of a second;
# the work keeps growing exponentially past it, so larger orders need --force
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


def _tally(t: Tournament) -> dict[tuple[int, ...], int]:
    """Raw tallies of all n! vertex orders, keyed by canonical type.

    A depth-first walk over up/down words.  Each word carries its frontier
    ``{(visited mask, last vertex): number of vertex orders}``; one pass over
    a frontier builds the frontiers of the word's ascent and descent
    children, so all orders that trace the same word are counted together.
    """
    n = t.n
    # vertex v is bit 1 << (v - 1); beats[u] has the bits of the vertices u beats
    beats = [0] + [
        sum(1 << (v - 1) for v in range(1, n + 1) if row[v]) for row in t.wins[1:]
    ]
    everyone = (1 << n) - 1
    counts: dict[tuple[int, ...], int] = {}

    def walk(frontier, entries, run, depth):
        if depth == n - 1:
            key = canonical_key(entries + (run,))
            counts[key] = counts.get(key, 0) + sum(frontier.values())
            return
        up: dict[tuple[int, int], int] = {}
        down: dict[tuple[int, int], int] = {}
        for (mask, last), orders in frontier.items():
            wins = beats[last]
            rest = everyone & ~mask
            while rest:
                bit = rest & -rest
                rest ^= bit
                child = up if wins & bit else down
                state = (mask | bit, bit.bit_length())
                child[state] = child.get(state, 0) + orders
        for child, step in ((up, 1), (down, -1)):
            if not child:
                continue
            if run == 0 or (run > 0) == (step > 0):
                walk(child, entries, run + step, depth + 1)
            else:
                walk(child, entries + (run,), step, depth + 1)

    walk({(1 << (v - 1), v): 1 for v in range(1, n + 1)}, (), 0, 0)
    return counts


def census(t: Tournament, *, limit: int | None = CENSUS_LIMIT) -> TypeCensus:
    """Count every Hamiltonian oriented path of ``t``, grouped by type.

    Tallies all n! vertex orders in one process by a walk over up/down words
    (see :func:`_tally`), then halves each tally.  The total equals n!/2.
    """
    n = t.n
    if n < 3:
        raise InvalidOrder(f"census needs at least 3 vertices, got {n}")
    if limit is not None and n > limit:
        raise OrderTooLarge(f"census of order {n} exceeds the limit {limit}")

    counts = {}
    for key, value in _tally(t).items():
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

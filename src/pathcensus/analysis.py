"""Counting in transitive tournaments, composition scans, and cross-checks.

Ties the path-function engine to actual path counts: a type's count in the
transitive tournament is the path-function value of its block lengths,
halved when the type is symmetric (its paths read the same both ways).  On
top of that sit a full scan of a total's compositions, the all-ones maximum
checker, the property suite, and :func:`verify_against_oracle`, which checks
the vertex-order census on transitive, nearly-transitive or seeded random
tournaments with one census and one tally list per order: the total n!/2,
the complement's tally N_{Tᶜ}(a) = N_T(−a) relabelled from the same census,
and, on TT_n, the engine's count at the census's own keys; every type of
TT_n has a path, so no type escapes the list.  Results are immutable named
tuples of exact ints, rendered by the CLI alone.
"""

from math import factorial
from operator import itemgetter
from typing import NamedTuple

from .engine import MemoTable, _top_compositions, f_two_block, f_value, f_walk
from .errors import OutOfRange, TheoremViolation, TooLarge
from .oracle import CENSUS_LIMIT, census, make_nearly_transitive, make_random, make_transitive
from .types import _check_type_order, canonical_key, format_entries, is_symmetric, negate, unsigned

__all__ = [
    "DEFAULT_SCAN_LIMIT",
    "tt_count",
    "ScanReport",
    "scan",
    "ConjectureVerdict",
    "runner_up_pattern",
    "check_conjecture",
    "check_conjectures",
    "FamilyResult",
    "PropertySuiteReport",
    "run_property_suite",
    "Discrepancy",
    "OracleDiffReport",
    "verify_against_oracle",
]

DEFAULT_SCAN_LIMIT = 18


def tt_count(n: int, a, memo: MemoTable | None = None) -> int:
    """Paths of type ``a`` in the transitive tournament on ``n`` vertices.

    Equals the path-function value of the block lengths, halved for
    symmetric types.  The halving must be exact; an odd value there would
    mean the engine or the halving rule is broken.  A tuple that is not a
    signed type raises :class:`ParseError`.
    """
    a = _check_type_order(a, n)
    value = f_value(unsigned(a), memo)
    if is_symmetric(a):
        if value % 2:
            raise TheoremViolation(
                f"symmetric type {a} has odd path-function value {value}"
            )
        return value // 2
    return value


# ---------------------------------------------------------------------------
# scan and ranking


class ScanReport(NamedTuple):
    """Every composition of ``p`` with its path-function value.

    ``rows`` ascend by value (ties broken by composition); ``max_row`` is the
    last row, ``runner_up_row`` the best row whose composition is not the
    all-ones one.
    """

    p: int
    rows: list[tuple[tuple[int, ...], int]]
    max_row: tuple[tuple[int, ...], int]
    runner_up_row: tuple[tuple[int, ...], int]


def scan(p: int, *, limit: int | None = DEFAULT_SCAN_LIMIT) -> ScanReport:
    """Evaluate the path-function on all ``2**(p-1)`` compositions of ``p``.

    ``limit`` guards against accidental huge scans; pass ``None`` (or a
    bigger value) to override.  The values count the permutations of
    ``[p+1]`` that start with an ascent, one composition per up/down word, so
    they must sum to (p+1)!/2, or the scan raises :class:`TheoremViolation`.
    """
    if p < 2:
        raise OutOfRange(f"scan needs p >= 2, got {p}")
    if limit is not None and p > limit:
        raise TooLarge(f"scan of p={p} exceeds the limit {limit}")
    # f_walk yields ascending compositions and the sort is stable, so rows
    # ascend by (value, composition): the runner-up is the last row unless
    # that one is the all-ones composition
    rows = sorted(f_walk(p), key=itemgetter(1))
    if (total := sum(map(itemgetter(1), rows))) != factorial(p + 1) // 2:
        raise TheoremViolation(f"the values of total {p} sum to {total}, not {p + 1}!/2")
    runner_up = rows[-2] if rows[-1][0] == (1,) * p else rows[-1]
    return ScanReport(p=p, rows=rows, max_row=rows[-1], runner_up_row=runner_up)


# ---------------------------------------------------------------------------
# the all-ones maximum observation


class ConjectureVerdict(NamedTuple):
    """Outcome of the maximality observation at one total ``p``.

    ``all_ones_is_max``: the all-ones composition is the unique maximum.
    ``runner_up_is_1_2_ones``: the second-best value is attained exactly by
    (1,2,1,...,1) and its reverse.
    ``runner_up_exceeds_half_max``: twice the runner-up value beats the
    all-ones value.  ``witnesses`` lists the offending compositions, if any.
    """

    p: int
    all_ones_is_max: bool
    runner_up_is_1_2_ones: bool
    runner_up_exceeds_half_max: bool
    witnesses: list[tuple[int, ...]]

    @property
    def ok(self) -> bool:
        return (
            self.all_ones_is_max
            and self.runner_up_is_1_2_ones
            and self.runner_up_exceeds_half_max
        )


def runner_up_pattern(p: int) -> tuple[int, ...]:
    """The expected second-place composition (1, 2, 1, ..., 1) of total p."""
    if p < 3:
        raise OutOfRange(f"runner-up pattern needs p >= 3, got {p}")
    return (1, 2) + (1,) * (p - 3)


def check_conjecture(p: int, memo: MemoTable | None = None) -> ConjectureVerdict:
    """Judge the three maximality observations at one total ``p``: the last
    verdict of :func:`check_conjectures`, whose pruning judges every smaller
    total on the way in milliseconds.  A ``p`` past ``DEFAULT_SCAN_LIMIT``
    raises :class:`TooLarge`; ``check_conjectures(p, limit=None)[-1]`` goes
    further."""
    return check_conjectures(p, memo)[-1]


def check_conjectures(
    max_p: int,
    memo: MemoTable | None = None,
    *,
    limit: int | None = DEFAULT_SCAN_LIMIT,
) -> list[ConjectureVerdict]:
    """Judge the three maximality observations at every total ``3..max_p``.

    The runner-up is the largest value off the all-ones composition; it must
    be attained by (1,2,1,...,1) and its reverse alone, below F(1,...,1) and
    above half of it.  So a verdict reads only the values >= T_p =
    min(F(1,2,1,...,1), F(1,...,1)), which the engine's pruned walk yields.
    Totals go in increasing order, and the walk's bound M[m], the largest
    value at total m, is read off total m's verdict, exact as its runner-up
    is at least F(pattern) >= T_m: the bound rests on nothing but this run.

    The all-ones values come from :func:`f_value`, a second route, and a walk
    whose all-ones row differs raises :class:`TheoremViolation`.  Violations
    of the observations are findings, not errors: a verdict carries them as
    witnesses and its ``ok`` turns false.
    """
    if max_p < 3:
        raise OutOfRange(f"conjecture check needs p >= 3, got {max_p}")
    if limit is not None and max_p > limit:
        raise TooLarge(f"conjecture check of p={max_p} exceeds the limit {limit}")
    verdicts = []
    best = [1, 1, 2]  # M[m], the largest value at total m
    for p in range(3, max_p + 1):
        ones = f_value((1,) * p, memo)
        floor = min(ones, f_value(runner_up_pattern(p)))  # kept out of memo
        # never empty: the pattern reaches the floor, so the walk yields it
        rows = dict(_top_compositions(p, floor, best))
        if (walked := rows.pop((1,) * p, None)) != ones:
            raise TheoremViolation(f"F(1,...,1) at p={p} is {ones}, but the walk gives {walked}")
        runner = max(rows.values())
        attainers = sorted(c for c, v in rows.items() if v == runner)
        beating = sorted(c for c, v in rows.items() if v >= ones)
        verdicts.append(_verdict(p, ones, runner, attainers, beating))
        best.append(max(ones, runner))
    return verdicts


def _verdict(p, ones_value, runner_value, attainers, beating) -> ConjectureVerdict:
    pattern = runner_up_pattern(p)
    expected = sorted({pattern, pattern[::-1]})

    all_ones_is_max = ones_value > runner_value
    runner_is_pattern = attainers == expected
    exceeds_half = 2 * runner_value > ones_value

    witnesses: list[tuple[int, ...]] = []
    if not all_ones_is_max:
        witnesses.extend(beating)
    if not runner_is_pattern:
        witnesses.extend(c for c in attainers if c not in expected)
    if not exceeds_half:
        witnesses.extend(attainers)
    witnesses = list(dict.fromkeys(witnesses))

    return ConjectureVerdict(
        p=p,
        all_ones_is_max=all_ones_is_max,
        runner_up_is_1_2_ones=runner_is_pattern,
        runner_up_exceeds_half_max=exceeds_half,
        witnesses=witnesses,
    )


# ---------------------------------------------------------------------------
# inequality families


class FamilyResult(NamedTuple):
    name: str
    checked: int
    failures: list[str]

    @property
    def ok(self) -> bool:
        return not self.failures


class PropertySuiteReport(NamedTuple):
    limit: int
    families: list[FamilyResult]

    @property
    def ok(self) -> bool:
        return all(f.ok for f in self.families)

    def family(self, name: str) -> FamilyResult:
        for f in self.families:
            if f.name == name:
                return f
        raise KeyError(name)


# A family yields its instances up to a total: (c, value) claims that
# F(c) == value, and (left, right, want) that F(left) < F(right) is want.


def _two_block_value(limit):
    for q in range(2, limit + 1):
        for m in range(1, q):
            yield (m, q - m), f_two_block(m, q - m)


def _two_block_order(limit):
    for q in range(2, limit + 1):
        for m in range(1, q):
            for mp in range(1, q):
                yield (m, q - m), (mp, q - mp), m * (q - m) < mp * (q - mp)


def _block_split(limit):
    for total in range(4, limit + 1):
        for a in range(1, total - 1):
            t = total - a
            for m in range(1, t):
                yield (a, t), (a, m, t - m), True


def _three_block_pairs(limit):
    # (a, m, n, m', n') for every a + m + n = a + m' + n' up to limit
    for total in range(3, limit + 1):
        for a in range(1, total - 1):
            r = total - a
            for m in range(1, r):
                for mp in range(1, r):
                    yield a, m, r - m, mp, r - mp


def _three_block_prefix(limit):
    for a, m, n, mp, np_ in _three_block_pairs(limit):
        want = m * n < mp * np_ or ((mp, np_) == (n, m) and m < n)
        yield (a, m, n), (a, mp, np_), want


def _three_block_middle(limit):
    for a, m, n, mp, np_ in _three_block_pairs(limit):
        yield (m, a, n), (mp, a, np_), m * n < mp * np_


def _four_block_swap(limit):
    for total in range(6, limit + 1):
        for m in range(1, total - 2):
            for n in range(m + 1, total - 2):
                s = total - m - n  # a + b, with a < b
                for a in range(1, (s + 1) // 2):
                    yield (m, s - a, a, n), (m, a, s - a, n), True


# exact relations quoted for the refuted general claims
_PRINTED_RELATIONS = [
    ((3, 3), 20), ((1, 1, 4), 20),
    ((3, 4), 35), ((1, 1, 5), 27), ((1, 1, 5), (3, 4), True),
    ((1, 2, 4), 85), ((3, 1, 3), 69), ((3, 1, 3), (1, 2, 4), True),
    ((2, 11, 5), 637924), ((11, 3, 4), 631787), ((11, 3, 4), (2, 11, 5), True),
    ((2, 12, 5), 1015988), ((12, 3, 4), 984503), ((12, 3, 4), (2, 12, 5), True),
    ((6, 7, 3), 835549), ((4, 4, 8), 614823), ((4, 4, 8), (6, 7, 3), True),
    ((1, 3, 1), 19), ((2, 1, 2), 19),
    ((1, 2, 3, 1), 315), ((2, 1, 2, 2), 315),
    ((2, 4, 2), 379), ((3, 2, 3), 379),
]


def _check(instances, memo) -> tuple[int, list[str]]:
    # (instances checked, failure descriptions)
    checked, failures = 0, []
    for instance in instances:
        checked += 1
        if len(instance) == 2:
            comp, value = instance
            got = f_value(comp, memo)
            if got != value:
                failures.append(f"F{comp} == {value} is false ({got})")
        else:
            left, right, want = instance
            if (f_value(left, memo) < f_value(right, memo)) != want:
                failures.append(f"F{left} < F{right} is {not want}")
    return checked, failures


def run_property_suite(limit: int = 16) -> PropertySuiteReport:
    """Exhaustively check the known inequality families up to ``limit`` total.

    Each family claims, for every instance of total at most ``limit``
    (compared compositions share their total):

    - ``two_block_value``: F(m,n) = C(m+n, m);
    - ``two_block_order``: F(m,n) < F(m′,n′) iff mn < m′n′;
    - ``block_split``: F(a, m+n) < F(a,m,n), splitting a block raises F;
    - ``three_block_prefix``: F(a,m,n) < F(a,m′,n′) iff mn < m′n′, or
      (m′,n′) = (n,m) with m < n;
    - ``three_block_middle``: F(m,a,n) < F(m′,a,n′) iff mn < m′n′;
    - ``four_block_swap``: F(m,a,b,n) > F(m,b,a,n) for m < n and a < b;
    - ``printed_relations``: the 23 exact values and orders quoted against
      the refuted general claims, whatever ``limit``.

    Failures are report content, not exceptions: a false instance lands in
    the family's failure list, named by its compositions and relation.  A
    ``limit`` below 6 raises :class:`OutOfRange`: ``four_block_swap``'s
    first instance, (1,1,2,2), has total 6, so a smaller one checks nothing.
    """
    if limit < 6:
        raise OutOfRange(f"property suite needs limit >= 6, got {limit}")
    memo = MemoTable()
    instances = [
        ("two_block_value", _two_block_value(limit)),
        ("two_block_order", _two_block_order(limit)),
        ("block_split", _block_split(limit)),
        ("three_block_prefix", _three_block_prefix(limit)),
        ("three_block_middle", _three_block_middle(limit)),
        ("four_block_swap", _four_block_swap(limit)),
        ("printed_relations", _PRINTED_RELATIONS),
    ]
    families = [FamilyResult(name, *_check(family, memo)) for name, family in instances]
    return PropertySuiteReport(limit=limit, families=families)


# ---------------------------------------------------------------------------
# differential verification against the vertex-order census


class Discrepancy(NamedTuple):
    n: int
    type_key: str
    oracle: int
    expected: int
    note: str = ""


class OracleDiffReport(NamedTuple):
    kind: str
    max_n: int
    seed: int | None
    checks: int
    discrepancies: list[Discrepancy]

    @property
    def ok(self) -> bool:
        return not self.discrepancies


def _compare(n: int, got: dict, want: dict, note: str, found: list) -> int:
    """Check two tallies key for key, in key order, appending a
    :class:`Discrepancy` to ``found`` per mismatch; returns the keys checked.
    A key is a type, shown by its entries, or a ``str`` label such as ``"(total)"``."""
    keys = sorted(set(got) | set(want))
    for key in keys:
        if got.get(key, 0) != want.get(key, 0):
            label = key if type(key) is str else format_entries(key)
            found.append(Discrepancy(n, label, got.get(key, 0), want.get(key, 0), note))
    return len(keys)


def verify_against_oracle(
    max_n: int,
    kind: str = "transitive",
    seed: int = 0,
    *,
    limit: int | None = CENSUS_LIMIT,
) -> OracleDiffReport:
    """Check the vertex-order census on one tournament family at every order
    3..``max_n``: ``"transitive"``, ``"nearly"`` or ``"random"`` (``seed`` is
    read by ``"random"`` alone).  Each order runs one census and compares one
    list of tallies, one check per key and, per mismatch, one
    :class:`Discrepancy` with its note:

    - every kind: the census total against n!/2 (``partition``), then the
      census against the complement's, N_{Tᶜ}(a) = N_T(−a), as complementing
      flips every letter, so negates every type (``complement``; tests census Tᶜ);
    - transitive: the engine's count at each census key (``transitive-census``);
    - nearly: the directed-path count against 2^(n-2) + 1 (``directed-count``).

    Every type of TT_n has a path, so a key the census drops breaks
    ``partition`` or the key its count moved to, a key out of canonical form
    breaks ``complement``, and a wrong count ``transitive-census``.
    """
    builders = {
        "transitive": make_transitive,
        "nearly": make_nearly_transitive,
        "random": lambda n: make_random(n, seed),
    }
    if kind not in builders:
        raise ValueError(f"unknown tournament kind: {kind!r}")
    # refuse before the first census, not after the orders below the limit
    if max_n < 3:
        raise OutOfRange(f"verification needs max_n >= 3, got {max_n}")
    if limit is not None and max_n > limit:
        raise TooLarge(f"census of order {max_n} exceeds the limit {limit}")
    checks = 0
    discrepancies = []
    for n in range(3, max_n + 1):
        cen = census(builders[kind](n), limit=limit)
        tallies = [
            ({"(total)": cen.total()}, {"(total)": factorial(n) // 2}, "partition"),
            (cen.counts, {canonical_key(negate(k)): v for k, v in cen.counts.items()}, "complement"),
        ]
        if kind == "transitive":
            tallies.append((cen.counts, {k: tt_count(n, k) for k in cen.counts}, "transitive-census"))
        elif kind == "nearly":
            directed = {(n - 1,): cen.counts.get((n - 1,), 0)}
            tallies.append((directed, {(n - 1,): 2 ** (n - 2) + 1}, "directed-count"))
        for got, want, note in tallies:
            checks += _compare(n, got, want, note, discrepancies)
    return OracleDiffReport(
        kind=kind,
        max_n=max_n,
        seed=seed if kind == "random" else None,
        checks=checks,
        discrepancies=discrepancies,
    )

"""Counting in transitive tournaments, composition scans, and cross-checks.

Ties the path-function engine to actual path counts: a type's count in the
transitive tournament is the path-function value of its block lengths,
halved when the type is symmetric (a symmetric path is met once per
enumeration direction).  On top of that sit a full scan of all compositions
of a total with ranking, the observation checker for the all-ones maximum,
the property suite (seven families that each list their instances, exact
values or strict orders, checked by one loop up to a total), and a
differential check against the vertex-order census.  Results are immutable
named tuples holding exact ints; rendering them as text, csv or JSON is the
CLI's job alone.
"""

from itertools import accumulate
from math import comb, factorial
from operator import itemgetter
from typing import NamedTuple

from .engine import MemoTable, f_two_block, f_value, f_walk
from .errors import OrderTooLarge, OutOfRange, ScanTooLarge, TheoremViolation, TypeOrderMismatch
from .oracle import CENSUS_LIMIT, census, make_nearly_transitive, make_random, make_transitive, complement
from .types import (
    canonical_key,
    check_signed_type,
    compositions,
    format_entries,
    is_symmetric,
    signed_lift,
    unsigned,
)

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
    "verify_tournament_invariants",
]

DEFAULT_SCAN_LIMIT = 18


def tt_count(n: int, a, memo: MemoTable | None = None) -> int:
    """Paths of type ``a`` in the transitive tournament on ``n`` vertices.

    Equals the path-function value of the block lengths, halved for
    symmetric types.  The halving must be exact; an odd value there would
    mean the engine or the halving rule is broken.  A tuple that is not a
    signed type raises :class:`ParseError`.
    """
    a = check_signed_type(a)
    total = sum(abs(e) for e in a)
    if total != n - 1:
        raise TypeOrderMismatch(
            f"type {a} has total block length {total}, need {n - 1}"
        )
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
    bigger value) to override.
    """
    if p < 2:
        raise OutOfRange(f"scan needs p >= 2, got {p}")
    if limit is not None and p > limit:
        raise ScanTooLarge(f"scan of p={p} exceeds the limit {limit}")
    rows = sorted(f_walk(p), key=itemgetter(1, 0))
    # rows ascend by (value, composition): the runner-up is the last row
    # unless that one is the all-ones composition
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


def check_conjecture(
    p: int,
    memo: MemoTable | None = None,
    *,
    limit: int | None = DEFAULT_SCAN_LIMIT,
) -> ConjectureVerdict:
    """Judge the three maximality observations at one total ``p``.

    The verdict for ``p`` from :func:`check_conjectures`, which judges every
    smaller total on the way; the pruning keeps that to milliseconds.
    """
    return check_conjectures(p, memo, limit=limit)[-1]


def check_conjectures(
    max_p: int,
    memo: MemoTable | None = None,
    *,
    limit: int | None = DEFAULT_SCAN_LIMIT,
) -> list[ConjectureVerdict]:
    """Judge the three maximality observations at every total ``3..max_p``.

    A verdict reads only the values >= T_p = min(F(1,2,1,...,1), F(1,...,1)),
    so each total is one walk that drops every subtree unable to reach T_p:
    the completions of a word w of total k sum to C(p+1, k+1)·F(w)·F(u) over
    the junction letter, so none exceeds C(p+1, k+1)·F(w)·M[p-k-1], with M[m]
    the largest value at total m.  Totals are judged in increasing order and
    M[m] is read off total m's verdict, exact because its runner-up is at
    least F(pattern) >= T_m; so the bound rests on nothing but this run.

    The all-ones values come from :func:`f_value`, a second route.
    Violations are findings, not errors: a verdict carries them as witnesses
    and its ``ok`` turns false.
    """
    if max_p < 3:
        raise OutOfRange(f"conjecture check needs p >= 3, got {max_p}")
    if limit is not None and max_p > limit:
        raise ScanTooLarge(f"conjecture check of p={max_p} exceeds the limit {limit}")
    verdicts = []
    best = [1, 1, 2]  # M[m], the largest value at total m
    for p in range(3, max_p + 1):
        ones = f_value((1,) * p, memo)
        floor = min(ones, f_value(runner_up_pattern(p)))  # kept out of memo
        runner, attainers, beating = 0, [], []
        for comp, value in _top_compositions(p, floor, best):
            if len(comp) == p:
                continue  # all-ones itself
            if value >= ones:
                beating.append(comp)
            if value > runner:
                runner, attainers = value, [comp]
            elif value == runner:
                attainers.append(comp)
        verdicts.append(_verdict(p, ones, runner, sorted(attainers), sorted(beating)))
        best.append(max(ones, runner))
    return verdicts


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
    the family's failure list, named by its compositions and relation.
    """
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
# differential verification against the brute-force oracle


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


def _refuse_orders(max_n: int, limit: int | None) -> None:
    # refuse before the first census, not after the orders below the limit
    if max_n < 3:
        raise OutOfRange(f"verification needs max_n >= 3, got {max_n}")
    if limit is not None and max_n > limit:
        raise OrderTooLarge(f"census of order {max_n} exceeds the limit {limit}")


def verify_against_oracle(max_n: int, *, limit: int | None = CENSUS_LIMIT) -> OracleDiffReport:
    """Compare the path-function route with the vertex-order census on every
    transitive tournament up to ``max_n``, key for key."""
    _refuse_orders(max_n, limit)
    memo = MemoTable()
    checks = 0
    discrepancies = []
    for n in range(3, max_n + 1):
        cen = census(make_transitive(n), limit=limit)
        lifts = (signed_lift(c, lead) for c in compositions(n - 1) for lead in (True, False))
        expected = {key: tt_count(n, key, memo) for key in set(map(canonical_key, lifts))}
        for key in sorted(set(cen.counts) | set(expected)):
            got = cen.counts.get(key, 0)
            want = expected.get(key, 0)
            checks += 1
            if got != want:
                discrepancies.append(
                    Discrepancy(n, format_entries(key), got, want, "transitive-census")
                )
    return OracleDiffReport(
        kind="transitive",
        max_n=max_n,
        seed=None,
        checks=checks,
        discrepancies=discrepancies,
    )


def verify_tournament_invariants(
    kind: str,
    max_n: int,
    seed: int = 0,
    *,
    limit: int | None = CENSUS_LIMIT,
) -> OracleDiffReport:
    """Self-checks for non-transitive tournaments.

    For every order up to ``max_n``: the census must partition all n!/2
    paths, and the complement must show the same count for every type.  The
    nearly-transitive family additionally pins its directed-path count to
    2^(n-2) + 1.
    """
    if kind not in ("nearly", "random"):
        raise ValueError(f"unknown tournament kind: {kind!r}")
    _refuse_orders(max_n, limit)
    checks = 0
    discrepancies = []
    for n in range(3, max_n + 1):
        t = make_nearly_transitive(n) if kind == "nearly" else make_random(n, seed)
        cen = census(t, limit=limit)
        comp_cen = census(complement(t), limit=limit)

        checks += 1
        total = cen.total()
        want_total = factorial(n) // 2
        if total != want_total:
            discrepancies.append(
                Discrepancy(n, "(total)", total, want_total, "partition")
            )
        for key in sorted(set(cen.counts) | set(comp_cen.counts)):
            checks += 1
            got = cen.counts.get(key, 0)
            mirrored = comp_cen.counts.get(key, 0)
            if got != mirrored:
                discrepancies.append(
                    Discrepancy(n, format_entries(key), got, mirrored, "complement")
                )
        if kind == "nearly":
            checks += 1
            directed = cen.counts.get(canonical_key((n - 1,)), 0)
            want = 2 ** (n - 2) + 1
            if directed != want:
                discrepancies.append(
                    Discrepancy(n, format_entries((n - 1,)), directed, want, "directed-count")
                )
    return OracleDiffReport(
        kind=kind,
        max_n=max_n,
        seed=seed if kind == "random" else None,
        checks=checks,
        discrepancies=discrepancies,
    )

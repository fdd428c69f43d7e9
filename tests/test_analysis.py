"""Transitive counts, scans, observation checks, suites, and oracle checks."""

import json
import re
import time
from ast import literal_eval
from itertools import groupby, product, takewhile
from math import comb, factorial
from operator import itemgetter

import pytest
from hypothesis import example, given, settings, strategies as st

from pathcensus import analysis, cli
from pathcensus.analysis import (
    ConjectureVerdict,
    Discrepancy,
    OracleDiffReport,
    ScanReport,
    check_conjecture,
    check_conjectures,
    run_property_suite,
    runner_up_pattern,
    scan,
    tt_count,
    verify_against_oracle,
)
from pathcensus.engine import MemoTable, f_two_block, f_value, f_walk
from pathcensus.errors import (
    OutOfRange,
    ParseError,
    PathCensusError,
    TheoremViolation,
    TooLarge,
)
from pathcensus.oracle import (
    TypeCensus,
    census,
    count_type,
    make_nearly_transitive,
    make_random,
    make_tournament,
    make_transitive,
)
from pathcensus.types import (
    canonical_key,
    compositions,
    derive_children,
    negate,
    parse_composition,
    signed_lift,
)


# tt_count -----------------------------------------------------------------

def test_tt_count_examples():
    assert tt_count(3, (1, -1)) == 1
    assert tt_count(8, (3, -4)) == 35
    assert tt_count(5, (2, -2)) == 3


def test_tt_count_refuses_an_odd_symmetric_value(monkeypatch):
    monkeypatch.setattr(analysis, "f_value", lambda *a, **k: 7)
    with pytest.raises(TheoremViolation, match=r"symmetric type \(2, -2\) has odd"):
        tt_count(5, (2, -2))


def test_tt_count_rejects_order_mismatch():
    with pytest.raises(OutOfRange, match="total block length 2, need 3"):
        tt_count(4, (1, -1))


@pytest.mark.parametrize(
    "count",
    [lambda a: tt_count(3, a), lambda a: count_type(make_transitive(3), a)],
    ids=["tt_count", "count_type"],
)
@pytest.mark.parametrize(
    "bad",
    [(1, 1), (-1, -1), (2, 0), (1, 0, -1), (2.0,), (1.5, -0.5), ("1", "-1"), (True, -1)],
)
def test_malformed_signed_types_are_refused_by_both_counts(count, bad):
    # each tuple has total 2, so order 3 fits; a zero, a repeated sign or an
    # entry that is no int (a bool included) describes no path type and must
    # not be counted
    with pytest.raises(ParseError):
        count(bad)


def test_tt_count_negation_invariance():
    memo = MemoTable()
    for total in range(2, 9):
        for comp in compositions(total):
            a = signed_lift(comp, True)
            assert tt_count(total + 1, a, memo) == tt_count(total + 1, negate(a), memo)


def test_tt_counts_partition_all_paths():
    # one count per canonical path set, summed over both leading signs
    memo = MemoTable()
    for n in range(3, 13):
        total = 0
        seen = set()
        for comp in compositions(n - 1):
            for lead in (True, False):
                key = canonical_key(signed_lift(comp, lead))
                if key not in seen:
                    seen.add(key)
                    total += tt_count(n, key, memo)
        assert total == factorial(n) // 2, n


# scan ------------------------------------------------------------------------

def test_scan_p3_rows_exactly():
    report = scan(3)
    assert report.rows == [((3,), 1), ((1, 2), 3), ((2, 1), 3), ((1, 1, 1), 5)]
    assert report.max_row == ((1, 1, 1), 5)
    assert report.runner_up_row == ((2, 1), 3)


def test_scan_p2_rows():
    report = scan(2)
    assert report.rows == [((2,), 1), ((1, 1), 2)]
    assert report.runner_up_row == ((2,), 1)


def test_scan_p6_equal_values_sit_adjacent():
    rows = scan(6).rows
    i = rows.index(((1, 1, 4), 20))
    assert rows[i + 1] == ((3, 3), 20)


def test_scan_row_count_and_monotonicity():
    for p in (4, 7, 10):
        report = scan(p)
        assert len(report.rows) == 2 ** (p - 1)
        values = [v for _, v in report.rows]
        assert values == sorted(values)


def test_scan_respects_limit():
    with pytest.raises(TooLarge, match="scan of p=12 exceeds the limit 10"):
        scan(12, limit=10)
    scan(6, limit=None)
    with pytest.raises(ValueError):
        scan(1)


# conjecture ----------------------------------------------------------------------

def test_runner_up_pattern_shapes():
    assert runner_up_pattern(3) == (1, 2)
    assert runner_up_pattern(4) == (1, 2, 1)
    assert runner_up_pattern(7) == (1, 2, 1, 1, 1, 1)


def test_conjecture_p3():
    v = check_conjecture(3)
    assert v.ok
    assert v.all_ones_is_max and v.runner_up_is_1_2_ones
    assert v.witnesses == []


def test_conjecture_p4_values():
    report = scan(4)
    values = dict(report.rows)
    assert values[(1, 1, 1, 1)] == 16
    assert values[(1, 2, 1)] == 11
    v = check_conjecture(4)
    assert v.ok and 2 * 11 > 16


def sorted_rows_verdict(p):
    # the verdict read off the value-sorted rows of a full walk: a scan's
    # rows, sorted here because the witness tests below feed values that
    # miss the (p+1)!/2 sum scan checks
    rows, ones = sorted(analysis.f_walk(p), key=itemgetter(1)), (1,) * p
    ones_value = f_value(ones)
    runner_value = max(v for c, v in rows if c != ones)
    floor = min(ones_value, runner_value)
    top = [(c, v) for c, v in takewhile(lambda r: r[1] >= floor, reversed(rows)) if c != ones]
    attainers = sorted(c for c, v in top if v == runner_value)
    pattern = runner_up_pattern(p)
    expected = sorted({pattern, pattern[::-1]})
    flags = (ones_value > runner_value, attainers == expected, 2 * runner_value > ones_value)
    witnesses = sorted(c for c, v in top if v >= ones_value) if not flags[0] else []
    witnesses += [c for c in attainers if c not in expected] if not flags[1] else []
    witnesses += attainers if not flags[2] else []
    return ConjectureVerdict(p, *flags, list(dict.fromkeys(witnesses)))


def test_one_walk_matches_the_sorted_rows_to_p14():
    verdicts = check_conjectures(14)
    assert [v.p for v in verdicts] == list(range(3, 15))
    for v in verdicts:
        assert v == sorted_rows_verdict(v.p), v.p
    assert check_conjecture(14) == verdicts[-1]


def one_walk_verdicts(max_p):
    # the unpruned reference: one f_walk pass per total 3..max_p values
    # every composition and keeps, per total, the runner-up attainers and
    # the compositions that reach the all-ones value
    totals = range(3, max_p + 1)
    ones = {p: f_value((1,) * p) for p in totals}
    runner = dict.fromkeys(totals, 0)
    attainers = {p: [] for p in totals}
    beating = {p: [] for p in totals}
    for p in totals:
        for comp, value in f_walk(p):
            if len(comp) == p:
                continue
            if value >= ones[p]:
                beating[p].append(comp)
            if value > runner[p]:
                runner[p], attainers[p] = value, [comp]
            elif value == runner[p]:
                attainers[p].append(comp)
    return [
        analysis._verdict(p, ones[p], runner[p], sorted(attainers[p]), sorted(beating[p]))
        for p in totals
    ]


def test_pruned_walk_matches_the_unpruned_walk_to_p20():
    assert check_conjectures(20, limit=None) == one_walk_verdicts(20)


def test_a_subtree_bound_equal_to_the_floor_is_expanded():
    # M[0..5] and the root (1,) of total 5: its completions' bound is
    # C(6, 2) * F(1) * M[3] = 15 * 1 * 5 = 75, so a floor of exactly 75
    # keeps the subtree and its all-ones leaf; one above it drops both
    best = [1, 1, 2, 5, 16, 61]
    assert ((1, 1, 1, 1, 1), 61) in list(analysis._top_compositions(5, 75, best))
    assert list(analysis._top_compositions(5, 76, best)) == []


def test_split_identity_behind_the_pruning_bound():
    # split a permutation of [p+1] after place k+1: pick the values of the
    # first k+1 places, then order each side; the junction letter c is free
    values = {c: v for total in range(1, 12) for c, v in f_walk(total)}

    def F(word):  # the value of a word's run lengths; one empty permutation
        runs = tuple(len(list(g)) for _, g in groupby(word))
        return values[runs] if runs else 1

    for n in range(11):
        for k in range(n + 1):
            p = n + 1
            for w in product("ud", repeat=k):
                for u in product("ud", repeat=n - k):
                    joined = sum(F(w + (c,) + u) for c in "ud")
                    assert joined == comb(p + 1, k + 1) * F(w) * F(u)


def test_check_conjecture_per_total_and_to_p60_stay_fast():
    start = time.perf_counter()
    assert all(check_conjecture(p).ok for p in range(3, 19))
    assert time.perf_counter() - start < 10.0
    start = time.perf_counter()
    verdicts = check_conjectures(60, limit=None)
    assert [v.p for v in verdicts] == list(range(3, 61))
    assert all(v.ok for v in verdicts)
    assert time.perf_counter() - start < 10.0


def test_conjecture_holds_to_p10():
    memo = MemoTable()
    for p in range(3, 11):
        assert check_conjecture(p, memo).ok, p


ONES_5 = (1, 1, 1, 1, 1)


@pytest.mark.parametrize(
    "changes,flags,witnesses",
    [
        # all-ones beaten (the (1,2,1,1) pair) and tied ((3,2) at 61)
        (
            {(1, 1, 2, 1): 70, (1, 2, 1, 1): 70, (3, 2): 61},
            (False, True, True),
            [(1, 1, 2, 1), (1, 2, 1, 1), (3, 2)],
        ),
        # a third composition ties the runner-up pair
        ({(2, 3): 40}, (True, False, True), [(2, 3)]),
        # runner-up pair no longer above half the all-ones value
        (
            {(1, 1, 2, 1): 30, (1, 2, 1, 1): 30, (1, 1, 1, 2): 29, (2, 1, 1, 1): 29},
            (True, True, False),
            [(1, 1, 2, 1), (1, 2, 1, 1)],
        ),
        # one composition is witness of two flags and is listed once
        ({(2, 3): 61, (3, 2): 75}, (False, False, True), [(2, 3), (3, 2)]),
    ],
    ids=["all_ones_beaten", "runner_up_tied", "runner_up_below_half", "shared_witness"],
)
def test_conjecture_witness_branches(monkeypatch, changes, flags, witnesses):
    values = {c: v for total in range(1, 6) for c, v in f_walk(total)}
    values.update(changes)
    # fed where the verdict reads the walk, since values above the true
    # maximum break the pruning bound; served in reverse walk order, so the
    # verdict must not lean on the order
    monkeypatch.setattr(
        analysis,
        "_top_compositions",
        lambda p, floor, best: ((c, v) for c, v in reversed(values.items()) if sum(c) == p),
    )
    # the sorted-rows reference scans the same changed values
    monkeypatch.setattr(
        analysis,
        "f_walk",
        lambda p: ((c, v) for c, v in values.items() if sum(c) == p),
    )
    v = check_conjecture(5)
    assert v == sorted_rows_verdict(5)
    assert values[ONES_5] == 61
    assert (
        v.all_ones_is_max,
        v.runner_up_is_1_2_ones,
        v.runner_up_exceeds_half_max,
    ) == flags
    assert v.witnesses == witnesses
    assert not v.ok


def test_conjecture_rejects_tiny_p():
    with pytest.raises(ValueError):
        check_conjecture(2)


@pytest.mark.parametrize(
    "call",
    [
        lambda: runner_up_pattern(2),
        lambda: f_walk(0),
        lambda: list(compositions(0)),
        lambda: f_two_block(0, 3),
        lambda: f_two_block(3, 0),
        lambda: run_property_suite(0),
        lambda: run_property_suite(-5),
        lambda: run_property_suite(5),
        lambda: census(make_transitive(2)),
        lambda: make_transitive(1),
        lambda: make_nearly_transitive(2),
        lambda: make_random(1, 0),
        lambda: make_tournament(1, []),
        lambda: tt_count(5, (1,)),
        lambda: count_type(make_transitive(5), (1,)),
        lambda: derive_children((1,)),
    ],
    ids=[
        "runner_up_pattern",
        "f_walk",
        "compositions",
        "f_two_block-m",
        "f_two_block-n",
        "run_property_suite-0",
        "run_property_suite--5",
        "run_property_suite-5",
        "census",
        "make_transitive",
        "make_nearly_transitive",
        "make_random",
        "make_tournament",
        "tt_count",
        "count_type",
        "derive_children",
    ],
)
def test_sizes_below_the_range_are_library_errors(call):
    with pytest.raises(PathCensusError) as caught:
        call()
    assert isinstance(caught.value, OutOfRange)
    assert isinstance(caught.value, ValueError)


# property suite -----------------------------------------------------------------

def test_property_suite_clean_at_total_12():
    report = run_property_suite(12)
    assert report.ok
    names = [f.name for f in report.families]
    assert names == [
        "two_block_value",
        "two_block_order",
        "block_split",
        "three_block_prefix",
        "three_block_middle",
        "four_block_swap",
        "printed_relations",
        "recurrence",
    ]
    assert all(f.checked > 0 for f in report.families)
    assert report.family("printed_relations").checked == 23


def test_property_suite_family_refuses_an_unknown_name():
    with pytest.raises(KeyError):
        run_property_suite(6).family("no_such_family")


@pytest.mark.parametrize(
    "limit,counts",
    [
        (12, [66, 506, 219, 1210, 1210, 80, 23, 4095]),
        (16, [120, 1240, 559, 4200, 4200, 336, 23, 65535]),
    ],
)
def test_property_suite_checks_a_fixed_number_of_instances(limit, counts):
    report = run_property_suite(limit)
    assert [f.checked for f in report.families] == counts
    assert report.ok


def test_property_suite_reports_a_wrong_value(monkeypatch):
    clean = run_property_suite(12)
    real = analysis.f_value
    monkeypatch.setattr(
        analysis, "f_value", lambda c, memo=None: 36 if tuple(c) == (3, 4) else real(c, memo)
    )
    report = run_property_suite(12)
    assert not report.ok
    for name in ("two_block_value", "printed_relations"):
        failures = report.family(name).failures
        assert any("(3,4)" in f.replace(" ", "") for f in failures), (name, failures)
    assert [f.checked for f in report.families] == [f.checked for f in clean.families]


@given(st.integers(1, 7).flatmap(lambda total: st.sampled_from(compositions(total))))
@example((2, 1))  # (2, 1) and its five parents (3,1) (2,2) (2,1,1) (1,2,1) (1,1,1,1)
@settings(max_examples=25, deadline=None)
def test_recurrence_names_a_wrong_value_and_its_parents(c):
    # F(c) one too high breaks c's own claim and the claim of every
    # composition with c among its children, and no other
    real = analysis.f_value
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(analysis, "f_value", lambda d, memo=None: real(d, memo) + (tuple(d) == c))
        failures = run_property_suite(8).family("recurrence").failures
    named = [literal_eval(re.match(r"F(\(.*?\)) == ", f)[1]) for f in failures]
    parents = [d for t in range(2, 9) for d in compositions(t) if c in derive_children(d)]
    assert sorted(named) == sorted([c, *parents])


def test_three_block_prefix_catches_known_ordering():
    # F(1,1,3) < F(1,3,1): equal products break toward the ascending pair
    memo = MemoTable()
    from pathcensus.engine import f_value

    assert f_value((1, 1, 3), memo) < f_value((1, 3, 1), memo) == 19


def test_four_block_example():
    from pathcensus.engine import f_value

    memo = MemoTable()
    assert f_value((1, 2, 1, 2), memo) < f_value((1, 1, 2, 2), memo)


# oracle differential ---------------------------------------------------------------

def test_verify_against_oracle_clean_to_n6():
    report = verify_against_oracle(6)
    assert report.ok
    assert report.checks > 0
    assert report.kind == "transitive"


def test_verify_against_oracle_nearly():
    report = verify_against_oracle(6, "nearly")
    assert report.ok


def test_verify_against_oracle_random():
    report = verify_against_oracle(6, "random", seed=5)
    assert report.ok
    assert report.seed == 5


@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda: verify_against_oracle(11), TooLarge, "census of order 11 exceeds"),
        (lambda: verify_against_oracle(11, "nearly"), TooLarge, "census of order 11 exceeds"),
        (lambda: verify_against_oracle(2), OutOfRange, "needs max_n >= 3"),
        (lambda: verify_against_oracle(2, "random"), OutOfRange, "needs max_n >= 3"),
        (lambda: verify_against_oracle(6, "random", seed=None), ValueError, "seed must be an int"),
    ],
    ids=["oracle-11", "nearly-11", "oracle-2", "random-2", "random-seed-None"],
)
def test_verify_refuses_before_any_census(monkeypatch, call, error, message):
    calls = []
    real = analysis.census
    monkeypatch.setattr(analysis, "census", lambda t, **k: calls.append(t) or real(t, **k))
    with pytest.raises(error, match=message):
        call()
    assert calls == []


@pytest.mark.parametrize("kind", ["transitive", "nearly", "random"])
def test_verify_runs_one_census_per_order(monkeypatch, kind):
    calls = []
    real = analysis.census
    monkeypatch.setattr(analysis, "census", lambda t, **k: calls.append(t) or real(t, **k))
    assert verify_against_oracle(9, kind).ok
    assert [t.n for t in calls] == list(range(3, 10))


def test_verify_rejects_unknown_kind():
    with pytest.raises(ValueError):
        verify_against_oracle(5, "weird")


def test_verify_check_totals_at_n9():
    # every kind's number of checks up to n = 9, so that a check gained or
    # lost shows; only the random kind reports its seed.  TT_n's census has
    # one key per canonical type, K = 3, 4, 10, 16, 36, 64, 136 at n = 3..9,
    # and transitive checks 2K + 1 per order (the total, then K keys each for
    # `complement` and `transitive-census`): 2 · 269 + 7 = 545
    totals = [("transitive", 0, 545), ("nearly", 0, 281), ("random", 0, 274), ("random", 5, 274)]
    for kind, seed, checks in totals:
        report = verify_against_oracle(9, kind, seed)
        assert (report.kind, report.checks, report.ok) == (kind, checks, True)
        assert report.seed == (seed if kind == "random" else None)


def doctor_census(monkeypatch, change):
    """Make verify see every census after `change(n, counts)` edits it."""
    real = analysis.census

    def doctored(t, **kwargs):
        counts = dict(real(t, **kwargs).counts)
        change(t.n, counts)
        return TypeCensus(counts)

    monkeypatch.setattr(analysis, "census", doctored)


def test_verify_reports_a_census_that_misses_the_partition(monkeypatch, capsys):
    # one directed path too many, in the census and in its complement's: only
    # the totals n!/2 = 3 and 12 break
    def one_more(n, counts):
        counts[(n - 1,)] += 1

    doctor_census(monkeypatch, one_more)
    report = verify_against_oracle(4, "random", seed=0)
    assert report.ok is False
    assert report.discrepancies == [
        Discrepancy(3, "(total)", 4, 3, "partition"),
        Discrepancy(4, "(total)", 13, 12, "partition"),
    ]
    code = cli.main(["verify", "--max-n", "4", "--kind", "random"])
    out = capsys.readouterr().out.splitlines()
    assert code == 1
    assert out[1:] == [
        "n=3 type=(total) oracle=4 expected=3 (partition)",
        "n=4 type=(total) oracle=13 expected=12 (partition)",
    ]


def move_a_directed_path(n, counts):
    """Move one directed path of order n to type (1, -(n-2)); the total holds."""
    counts[(n - 1,)] -= 1
    other = canonical_key((1, -(n - 2)))
    counts[other] = counts.get(other, 0) + 1


# The complement's tally is the census relabelled by negation: (n - 1) maps
# to itself, and (1, -(n-2)) to the distinct key (-1, n-2).  So a path moved
# to or added at (1, -(n-2)) breaks `complement` on those two keys, "-1,…"
# sorting first: the census reads N(-1, n-2) against N(1, -(n-2)) + 1, and
# N(1, -(n-2)) + 1 against N(-1, n-2).  A path u->v<-...<- of type
# (1, -(n-2)) is an arc u -> v and a directed path of the rest ending at v:
# - the cyclic triangle (seed 0 at n = 3, and nearly at n = 3) has 3 paths,
#   all directed, so N(1, -1) = N(-1, 1) = 0;
# - nearly at n = 4 (arc 4 -> 1) has the 3 paths 2->3<-1<-4, 2->4<-3<-1 and
#   3->4<-2<-1 of type (1, -2);
# - seed 0 at n = 4 (out-sets 1:{2,4} 2:{3} 3:{1} 4:{2,3}) has 3 paths of
#   type (1, -2): 2->3<-4<-1, 4->2<-1<-3 and 4->3<-2<-1;
# - nearly at n = 5 (arc 5 -> 1) has the 8 paths 2->3<-1<-5<-4,
#   2->4<-1<-5<-3, 2->4<-3<-1<-5, 3->4<-1<-5<-2, 3->4<-2<-1<-5,
#   2->5<-4<-3<-1, 3->5<-4<-2<-1 and 4->5<-3<-2<-1 of type (1, -3).
# Each N(-1, n-2) equals N(1, -(n-2)), as verify checks.


def test_verify_reports_a_wrong_nearly_directed_count(monkeypatch):
    # one directed path moved to (1, -(n-2)): the total holds, the counts
    # N(1, -(n-2)) = 0 and 3 no longer match N(-1, n-2), and the directed
    # counts 2^(n-2) + 1 = 3 and 5 read one less
    doctor_census(monkeypatch, move_a_directed_path)
    report = verify_against_oracle(4, "nearly")
    assert report.ok is False
    assert report.discrepancies == [
        Discrepancy(3, "-1,1", 0, 1, "complement"),
        Discrepancy(3, "1,-1", 1, 0, "complement"),
        Discrepancy(3, "2", 2, 3, "directed-count"),
        Discrepancy(4, "-1,2", 3, 4, "complement"),
        Discrepancy(4, "1,-2", 4, 3, "complement"),
        Discrepancy(4, "3", 4, 5, "directed-count"),
    ]


def test_verify_reports_a_transitive_census_off_the_path_function(monkeypatch):
    # TT_n has one directed path; (1, -(n-2)) counts F(1, 1)/2 = 1 at n = 3
    # (symmetric) and F(1, 2) = 3 at n = 4.  The total holds.  The moved path
    # breaks `complement` on (-1, n-2) and (1, -(n-2)), "-1,…" sorting first:
    # N(-1, 1) = 1 against N(1, -1) = 2 at n = 3, and N(-1, 2) = 3 against
    # N(1, -2) = 4 at n = 4.  Then `transitive-census` reads the engine at the
    # census's own keys: (1, -(n-2)) one too many, and (n-1) one too few
    doctor_census(monkeypatch, move_a_directed_path)
    report = verify_against_oracle(4)
    assert report.discrepancies == [
        Discrepancy(3, "-1,1", 1, 2, "complement"),
        Discrepancy(3, "1,-1", 2, 1, "complement"),
        Discrepancy(3, "1,-1", 2, 1, "transitive-census"),
        Discrepancy(3, "2", 0, 1, "transitive-census"),
        Discrepancy(4, "-1,2", 3, 4, "complement"),
        Discrepancy(4, "1,-2", 4, 3, "complement"),
        Discrepancy(4, "1,-2", 4, 3, "transitive-census"),
        Discrepancy(4, "3", 0, 1, "transitive-census"),
    ]


def test_verify_reports_a_dropped_transitive_key_as_partition(monkeypatch):
    # the directed path's key (n-1) deleted: the total reads n!/2 - 1, while
    # the complement's tally, relabelled from the same census, lacks the key
    # too, and the engine is read at the census's keys alone
    doctor_census(monkeypatch, lambda n, counts: counts.pop((n - 1,)))
    report = verify_against_oracle(5)
    assert report.discrepancies == [
        Discrepancy(3, "(total)", 2, 3, "partition"),
        Discrepancy(4, "(total)", 11, 12, "partition"),
        Discrepancy(5, "(total)", 59, 60, "partition"),
    ]


def test_verify_reports_a_non_canonical_transitive_key_as_complement(monkeypatch):
    # the directed path keyed (-(n-1)), the same path set as (n-1) but not its
    # canonical key: the count and the total hold, and F(n-1) = 1 is the
    # engine's count at either key, yet negation sends (-(n-1)) to (n-1), so
    # the complement's tally has the count at (n-1) and none at (-(n-1))
    def rename(n, counts):
        counts[(1 - n,)] = counts.pop((n - 1,))

    doctor_census(monkeypatch, rename)
    report = verify_against_oracle(5)
    assert report.discrepancies == [
        Discrepancy(n, key, got, want, "complement")
        for n in (3, 4, 5)
        for key, got, want in [(f"-{n - 1}", 1, 0), (f"{n - 1}", 0, 1)]
    ]


def test_verify_reports_a_census_its_complement_does_not_match(monkeypatch):
    # seed 0: N(1, -(n-2)) = 0 at n = 3 and 3 at n = 4, so the moved path
    # breaks the complement's tally and nothing else
    doctor_census(monkeypatch, move_a_directed_path)
    report = verify_against_oracle(4, "random", seed=0)
    assert report.discrepancies == [
        Discrepancy(3, "-1,1", 0, 1, "complement"),
        Discrepancy(3, "1,-1", 1, 0, "complement"),
        Discrepancy(4, "-1,2", 3, 4, "complement"),
        Discrepancy(4, "1,-2", 4, 3, "complement"),
    ]


def test_verify_orders_the_three_nearly_findings_of_one_order(monkeypatch):
    # one directed path and one path of type (1, -(n-2)) too many: the total
    # n!/2 + 2, the complement's tally on N(1, -(n-2)) = 0, 3, 8 and the
    # pinned directed count 2^(n-2) + 1 + 1 all break, in that order at each n
    def two_more(n, counts):
        counts[(n - 1,)] += 1
        other = canonical_key((1, -(n - 2)))
        counts[other] = counts.get(other, 0) + 1

    doctor_census(monkeypatch, two_more)
    report = verify_against_oracle(5, "nearly")
    assert report.discrepancies == [
        Discrepancy(3, "(total)", 5, 3, "partition"),
        Discrepancy(3, "-1,1", 0, 1, "complement"),
        Discrepancy(3, "1,-1", 1, 0, "complement"),
        Discrepancy(3, "2", 4, 3, "directed-count"),
        Discrepancy(4, "(total)", 14, 12, "partition"),
        Discrepancy(4, "-1,2", 3, 4, "complement"),
        Discrepancy(4, "1,-2", 4, 3, "complement"),
        Discrepancy(4, "3", 6, 5, "directed-count"),
        Discrepancy(5, "(total)", 62, 60, "partition"),
        Discrepancy(5, "-1,3", 8, 9, "complement"),
        Discrepancy(5, "1,-3", 9, 8, "complement"),
        Discrepancy(5, "4", 10, 9, "directed-count"),
    ]


# reports as the CLI renders them -----------------------------------------------------

def render(monkeypatch, capsys, call, result, *argv):
    """Exit code and stdout of `argv` when the CLI's `call` returns `result`."""
    monkeypatch.setattr(cli, call, lambda *a, **k: result)
    code = cli.main(list(argv))
    return code, capsys.readouterr().out


def row_from_json(entry):
    return parse_composition(entry["composition"]), int(entry["value"])


def test_scan_report_json_roundtrip(monkeypatch, capsys):
    report = scan(5)
    code, out = render(monkeypatch, capsys, "scan", report, "scan", "-p", "5", "--format", "json")
    assert code == 0
    data = json.loads(out)
    again = ScanReport(
        p=data["p"],
        rows=[row_from_json(r) for r in data["rows"]],
        max_row=row_from_json(data["max"]),
        runner_up_row=row_from_json(data["runner_up"]),
    )
    assert again == report


def verdict_from_json(entry):
    return ConjectureVerdict(
        p=entry["p"],
        all_ones_is_max=entry["all_ones_is_max"],
        runner_up_is_1_2_ones=entry["runner_up_is_1_2_ones"],
        runner_up_exceeds_half_max=entry["runner_up_exceeds_half_max"],
        witnesses=[parse_composition(c) for c in entry["witnesses"]],
    )


def test_conjecture_verdict_json_roundtrip(monkeypatch, capsys):
    fail = ConjectureVerdict(
        p=9,
        all_ones_is_max=False,
        runner_up_is_1_2_ones=True,
        runner_up_exceeds_half_max=True,
        witnesses=[(2, 3, 4)],
    )
    for verdict, exit_code in [(check_conjecture(5), 0), (fail, 1)]:
        code, out = render(
            monkeypatch, capsys, "check_conjectures", [verdict],
            "conjecture", "--max-p", str(verdict.p), "--format", "json",
        )
        assert code == exit_code
        (entry,) = json.loads(out)["verdicts"]
        assert verdict_from_json(entry) == verdict


def report_from_json(data):
    return OracleDiffReport(
        kind=data["kind"],
        max_n=data["max_n"],
        seed=data["seed"],
        checks=data["checks"],
        discrepancies=[
            Discrepancy(d["n"], d["type"], int(d["oracle"]), int(d["expected"]), d["note"])
            for d in data["discrepancies"]
        ],
    )


def test_verify_report_json_roundtrip(monkeypatch, capsys):
    report = verify_against_oracle(4)
    code, out = render(
        monkeypatch, capsys, "verify_against_oracle", report,
        "verify", "--max-n", "4", "--format", "json",
    )
    assert code == 0
    assert report_from_json(json.loads(out)) == report
    withdiff = OracleDiffReport(
        kind="random",
        max_n=5,
        seed=3,
        checks=7,
        discrepancies=[Discrepancy(5, "2,-2", 3, 4, "complement")],
    )
    code, out = render(
        monkeypatch, capsys, "verify_against_oracle", withdiff,
        "verify", "--max-n", "5", "--kind", "random", "--seed", "3", "--format", "json",
    )
    assert code == 1
    assert report_from_json(json.loads(out)) == withdiff


def test_scan_csv_lines(monkeypatch, capsys):
    code, out = render(monkeypatch, capsys, "scan", scan(3), "scan", "-p", "3", "--format", "csv")
    assert code == 0
    assert out.splitlines() == ["3;1", "1,2;3", "2,1;3", "1,1,1;5"]

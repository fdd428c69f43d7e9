"""Seeded operation streams for the three workloads.

A workload is an endless sequence of *rounds*; a round is a list of CLI
operations that run back to back.  Rounds are the unit a rate
is taken over, so each round holds a fixed mix: whatever the seed, every
round of a workload costs about the same.  ``work`` is the amount of the
workload's unit an operation covers, counted from its input, never from
what the program reports having done.
"""

import random
from collections.abc import Callable, Iterator
from dataclasses import dataclass
from functools import partial
from itertools import count
from math import factorial

import checker


@dataclass(frozen=True)
class Op:
    argv: tuple[str, ...]
    work: int
    check: Callable[[str], str | None]


@dataclass(frozen=True)
class Workload:
    unit: str
    rounds: Callable[[random.Random], Iterator[list[Op]]]
    min_rounds: int
    trace_rounds: int


def _random_composition(rng: random.Random, total: int) -> tuple[int, ...]:
    """Uniform over the 2**(total-1) compositions: cut each gap with p=1/2."""
    parts = [1]
    for _ in range(total - 1):
        if rng.getrandbits(1):
            parts.append(1)
        else:
            parts[-1] += 1
    return tuple(parts)


def _fmt(entries) -> str:
    return ",".join(str(e) for e in entries)


# conjecture: one memo shared across p = 3..max_p; the engine does most of
# the work, the oracle none.  The seed does not change the input.


def conjecture_rounds(max_p, rng):
    op = Op(
        ("conjecture", "--max-p", str(max_p)),
        work=2**max_p - 4,  # sum of 2**(p-1) over p = 3..max_p
        check=partial(checker.check_conjecture, max_p),
    )
    while True:
        yield [op]


# oracle: the n! permutation census does almost all the work; the engine is
# touched only by the transitive kind's per-type counts.


def _verify_op(kind: str, max_n: int, seed: int) -> Op:
    argv = ("verify", "--max-n", str(max_n), "--kind", kind)
    if kind == "random":
        argv += ("--seed", str(seed))
    censuses = 1 if kind == "transitive" else 2  # the others census the complement too
    paths = censuses * sum(factorial(n) // 2 for n in range(3, max_n + 1))
    return Op(argv, work=paths, check=partial(checker.check_verify, kind, max_n))


def oracle_rounds(max_n, rng):
    while True:
        kinds = ["transitive", "nearly", "random"]
        rng.shuffle(kinds)
        seed = rng.randrange(2**31)
        yield [_verify_op(kind, max_n, seed) for kind in kinds]


# interactive: single-shot processes with a cold memo each; start-up sets
# the median, deep cold evaluations and large scan renders set the p90.
#
# The cost of a cold evaluation depends on the part sizes far more than on
# their order: over uniform compositions of 24 it varies twentyfold.  So the
# part sizes for each total are fixed (one uniform draw from a generator
# seeded with the total) and the workload seed shuffles their order; every
# seed then costs about the same.  Each scan total alternates csv and json
# from round to round, starting from a seeded format.


def _parts(total: int) -> list[int]:
    return list(_random_composition(random.Random(total), total))


def interactive_rounds(totals, scan_ps, rng):
    first_format = {p: rng.getrandbits(1) for p in scan_ps}
    for r in count():
        ops = []
        for total in totals:
            comp = _parts(total)
            rng.shuffle(comp)
            comp = tuple(comp)
            ops.append(Op(("eval", _fmt(comp)), 1, partial(checker.check_eval, comp)))
        for total in totals:
            parts = _parts(total)
            rng.shuffle(parts)
            sign = rng.choice((1, -1))
            a = tuple(e * sign * (-1) ** i for i, e in enumerate(parts))
            ops.append(
                Op(
                    ("census", "-n", str(total + 1), "--", _fmt(a)),
                    1,
                    partial(checker.check_census, a),
                )
            )
        for p in scan_ps:
            fmt = ("csv", "json")[(first_format[p] + r) % 2]
            check = checker.check_scan_csv if fmt == "csv" else checker.check_scan_json
            ops.append(Op(("scan", "-p", str(p), "--format", fmt), 1, partial(check, p)))
        rng.shuffle(ops)
        yield ops


WORKLOADS = {
    "conjecture": Workload("compositions", partial(conjecture_rounds, 18), 3, 2),
    "oracle": Workload("paths", partial(oracle_rounds, 9), 3, 2),
    "interactive": Workload(
        "queries",
        partial(interactive_rounds, range(12, 25, 2), range(10, 17)),
        5,  # 5 rounds of 21 queries: at least ten samples beyond p90
        1,
    ),
}

SMOKE = {
    "conjecture": Workload("compositions", partial(conjecture_rounds, 8), 1, 1),
    "oracle": Workload("paths", partial(oracle_rounds, 5), 1, 1),
    "interactive": Workload("queries", partial(interactive_rounds, (6, 8), (4, 5)), 1, 1),
}


def take_rounds(workload: Workload, seed: int):
    """The workload's round stream for ``seed``."""
    return workload.rounds(random.Random(seed))


def trace_ops(workload: Workload, seed: int) -> list[Op]:
    """The fixed operation list a traced run replays: the first rounds of
    the same seeded stream the timed runs use."""
    rounds = take_rounds(workload, seed)
    return [op for _, rnd in zip(range(workload.trace_rounds), rounds) for op in rnd]

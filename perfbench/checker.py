"""Independent reference for every output the benchmark checks.

Imports nothing from ``pathcensus``.  The path-function value of a
composition ``(c1, ..., cs)`` of ``p`` is the number of permutations of
``[p+1]`` whose up/down signature is ``c1`` ups, then ``c2`` downs, and so
on.  That count comes from the rank DP of Niven (1968) and de Bruijn (1970):
after placing ``m`` elements, ``v[j]`` counts arrangements whose last element
has rank ``j`` among them, and one up or down step is a prefix sum.

Each ``check_*`` function returns ``None`` for a correct output and a short
reason string otherwise.
"""

import json
import re
from functools import cache
from itertools import accumulate
from math import factorial


def _step(v: list[int], up: bool) -> list[int]:
    acc = [0, *accumulate(v)]
    if up:
        return acc
    total = acc[-1]
    return [total - a for a in acc]


def updown_count(comp) -> int:
    """Permutations of [p+1] whose signature has run lengths ``comp``,
    starting with an up-run."""
    v = [1]
    up = True
    for run in comp:
        for _ in range(run):
            v = _step(v, up)
        up = not up
    return sum(v)


def is_symmetric(a) -> bool:
    a = tuple(a)
    return a == tuple(-e for e in reversed(a))


def census_count(a) -> int:
    """Paths of signed type ``a`` in the transitive tournament."""
    value = updown_count([abs(e) for e in a])
    return value // 2 if is_symmetric(a) else value


@cache
def scan_table(p: int) -> dict[tuple[int, ...], int]:
    """Value of every composition of ``p``, by a DFS over signatures that
    shares the DP vector of each prefix.  Cached per ``p``; do not mutate."""
    out: dict[tuple[int, ...], int] = {}
    parts = [1]

    def walk(v, steps, up):
        if steps == p:
            out[tuple(parts)] = sum(v)
            return
        parts[-1] += 1
        walk(_step(v, up), steps + 1, up)
        parts[-1] -= 1
        parts.append(1)
        walk(_step(v, not up), steps + 1, not up)
        parts.pop()

    walk(_step([1], True), 1, True)
    return out


def _comp(text: str) -> tuple[int, ...]:
    return tuple(int(x) for x in text.split(","))


def _fmt(comp) -> str:
    return ",".join(str(e) for e in comp)


def _check_rows(p: int, rows: list[tuple[tuple[int, ...], int]]) -> str | None:
    table = scan_table(p)
    if len(rows) != 2 ** (p - 1):
        return f"scan p={p}: {len(rows)} rows, want {2 ** (p - 1)}"
    if len({c for c, _ in rows}) != len(rows):
        return f"scan p={p}: repeated compositions"
    for c, v in rows:
        if table.get(c) != v:
            return f"scan p={p}: row {_fmt(c)};{v}, want {table.get(c)}"
    if sum(v for _, v in rows) != factorial(p + 1) // 2:
        return f"scan p={p}: values do not sum to (p+1)!/2"
    keys = [(v, c) for c, v in rows]
    if keys != sorted(keys):
        return f"scan p={p}: rows not ascending by (value, composition)"
    return None


def check_scan_csv(p: int, text: str) -> str | None:
    rows = []
    for line in text.splitlines():
        comp, sep, value = line.partition(";")
        if not sep:
            return f"scan p={p}: malformed row {line!r}"
        try:
            rows.append((_comp(comp), int(value)))
        except ValueError:
            return f"scan p={p}: malformed row {line!r}"
    return _check_rows(p, rows)


def check_scan_json(p: int, text: str) -> str | None:
    try:
        data = json.loads(text)
        rows = [(_comp(r["composition"]), int(r["value"])) for r in data["rows"]]
        best = (_comp(data["max"]["composition"]), int(data["max"]["value"]))
        second = (
            _comp(data["runner_up"]["composition"]),
            int(data["runner_up"]["value"]),
        )
    except (ValueError, KeyError, TypeError) as exc:
        return f"scan p={p}: malformed json ({exc})"
    if data.get("report") != "scan" or data.get("p") != p:
        return f"scan p={p}: wrong report header"
    bad = _check_rows(p, rows)
    if bad:
        return bad
    ones = (1,) * p
    if best != (ones, scan_table(p)[ones]):
        return f"scan p={p}: max row {best}"
    want = max(((v, c) for c, v in rows if c != ones))
    if second != (want[1], want[0]):
        return f"scan p={p}: runner-up row {second}"
    return None


def check_eval(comp, text: str) -> str | None:
    want = updown_count(comp)
    if text != f"{want}\n":
        return f"eval {_fmt(comp)}: got {text.strip()!r}, want {want}"
    return None


def check_census(a, text: str) -> str | None:
    sym = "symmetric" if is_symmetric(a) else "non-symmetric"
    want = f"{census_count(a)} {sym}\n"
    if text != want:
        return f"census {_fmt(a)}: got {text.strip()!r}, want {want.strip()!r}"
    return None


def check_conjecture(max_p: int, text: str) -> str | None:
    want = [
        f"p={p} all_ones_max=yes runner_up_pattern=yes runner_up_gt_half=yes"
        for p in range(3, max_p + 1)
    ]
    got = text.splitlines()
    if got != want:
        return f"conjecture --max-p {max_p}: {len(got)} lines, first mismatch " + next(
            (repr(g) for g, w in zip(got, want) if g != w), "in line count"
        )
    return None


def check_verify(kind: str, max_n: int, text: str) -> str | None:
    pattern = rf"kind={kind} n=3\.\.{max_n} checks=[1-9]\d* discrepancies=0\n"
    if not re.fullmatch(pattern, text):
        return f"verify {kind} --max-n {max_n}: got {text[:200]!r}"
    return None

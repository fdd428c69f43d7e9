"""Command-line front end.

Subcommands: eval, census, scan, conjecture, verify, bench.  This module is
the only one that knows output formats: the library returns named tuples
and exact ints, and each command renders them here as text, csv or JSON,
with every count a decimal string.  Primary results go to stdout, written
``BLOCK_LINES`` lines per write; one ``took <seconds>s`` line goes to stderr
so stdout stays pipe-safe.  A reader that closes the pipe early (``| head``)
ends the output, not the run: the rest of stdout goes to the null device and
the exit code is the command's own, with no traceback.  Exit codes: 0 clean,
1 mathematical finding (oracle discrepancy, observation violation or a
``TheoremViolation``), 2 usage error.  The library decides what is a usage
error: every other ``PathCensusError`` (``ParseError``, ``OutOfRange``,
``TooLarge``) becomes one ``error:`` line and exit 2, and so does a
``MemoryError`` (an input too large for the machine's memory); a
``TheoremViolation`` prints the same line and exits 1.  ``--force`` lifts
the library's size limits, so a ``TooLarge`` line says to pass it.
"""

import argparse
import os
import sys
import time
from itertools import islice

from .analysis import (
    DEFAULT_SCAN_LIMIT,
    check_conjectures,
    scan,
    tt_count,
    verify_against_oracle,
)
from .engine import f_value
from .errors import OutOfRange, PathCensusError, TheoremViolation, TooLarge
from .types import format_entries, is_symmetric, parse_composition, parse_signed_type

EXIT_OK = 0
EXIT_FINDING = 1
EXIT_USAGE = 2

FORMATS = ("text", "json", "csv")

# lines per stdout write: one syscall per block, not per line, and a bounded
# buffer however many rows a scan renders
BLOCK_LINES = 4096


def positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--format",
        choices=FORMATS,
        default="text",
        help="output format for the primary stream (default: text)",
    )
    parser.add_argument(
        "--jobs",
        type=positive_int,
        default=1,
        help="accepted for compatibility (N >= 1); every command runs in one "
        "process, so results are the same for any N",
    )
    parser.add_argument(
        "--force",
        action="store_true",
        help="lift the built-in p/n safety limits",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pathcensus",
        description="Exact per-type counts of oriented Hamiltonian paths "
        "in transitive tournaments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("eval", help="evaluate the path-function on a composition")
    p.add_argument("tuple", help="composition, e.g. 1,2,1,1")
    _add_common(p)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser(
        "census",
        help="count paths of one type in the transitive tournament",
        epilog="A type starting with a negative entry needs a '--' separator: "
        "census -n 3 -- -1,1",
    )
    p.add_argument("-n", type=int, required=True, help="tournament order")
    p.add_argument("tuple", help="signed type, e.g. 1,-2,1")
    _add_common(p)
    p.set_defaults(func=cmd_census)

    p = sub.add_parser("scan", help="evaluate all compositions of a total")
    p.add_argument("-p", type=int, required=True, help="composition total")
    p.add_argument(
        "--sort",
        choices=("value", "composition"),
        default="value",
        help="row order in text/csv output (default: value, ascending)",
    )
    _add_common(p)
    p.set_defaults(func=cmd_scan)

    p = sub.add_parser(
        "conjecture", help="check the all-ones maximality observations"
    )
    p.add_argument(
        "--max-p",
        type=int,
        default=DEFAULT_SCAN_LIMIT,
        help=f"judge every total 3..MAX_P (default: {DEFAULT_SCAN_LIMIT})",
    )
    _add_common(p)
    p.set_defaults(func=cmd_conjecture)

    p = sub.add_parser("verify", help="cross-check counts against the vertex-order census")
    p.add_argument(
        "--max-n", type=int, default=8, help="check every order 3..MAX_N (default: 8)"
    )
    p.add_argument(
        "--kind",
        choices=("transitive", "nearly", "random"),
        default="transitive",
        help="tournament family (default: transitive)",
    )
    p.add_argument(
        "--seed", type=int, default=0, help="seed of --kind random (default: 0)"
    )
    _add_common(p)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("bench", help="time a scan of all compositions of a total")
    p.add_argument("-p", type=int, default=14, help="composition total (default: 14)")
    _add_common(p)
    p.set_defaults(func=cmd_bench)

    return parser


# Every cmd_* computes its result and returns (exit code, renderers):
# renderers maps each of FORMATS to a function that yields the output lines,
# so only the requested format is ever rendered.  main() alone times the
# run, writes and reports.


def _json(data) -> str:
    import json  # only a JSON render pays for the module

    return json.dumps(data, indent=2)


def _row(comp, value) -> dict:
    return {"composition": format_entries(comp), "value": str(value)}


# _json's layout of one _row inside a top-level list; a row holds only digits
# and commas, so nothing in it needs escaping
_JSON_ROW = '    {\n      "composition": "%s",\n      "value": "%s"\n    }'


def _limit(args) -> dict:
    """Keyword arguments that lift the library's size limit under --force."""
    return {"limit": None} if args.force else {}


def cmd_eval(args):
    comp = parse_composition(args.tuple)
    value = f_value(comp)
    return EXIT_OK, {
        "text": lambda: [str(value)],
        "csv": lambda: [f"{format_entries(comp)};{value}"],
        "json": lambda: [_json({"report": "eval", **_row(comp, value)})],
    }


def cmd_census(args):
    if args.n < 3:
        raise OutOfRange(f"census needs n >= 3, got {args.n}")
    a = parse_signed_type(args.tuple)
    value = str(tt_count(args.n, a))
    key = format_entries(a)
    symmetric = is_symmetric(a)
    sym = "symmetric" if symmetric else "non-symmetric"
    data = {
        "report": "census",
        "n": args.n,
        "type": key,
        "symmetric": symmetric,
        "value": value,
    }
    return EXIT_OK, {
        "text": lambda: [f"{value} {sym}"],
        "csv": lambda: [f"{key};{sym};{value}"],
        "json": lambda: [_json(data)],
    }


def cmd_scan(args):
    report = scan(args.p, **_limit(args))
    # the text of each block length, made once per report, not once per block
    entry = [str(i) for i in range(report.p + 1)].__getitem__

    def rows(sep):
        ordered = report.rows
        if args.sort == "composition":
            ordered = sorted(ordered)
        return (f"{','.join(map(entry, c))}{sep}{v}" for c, v in ordered)

    def json_lines():
        # the text of _json({"report", "p", "rows", "max", "runner_up"}),
        # with the rows filled into _JSON_ROW instead of passing the encoder
        rows = report.rows
        yield _json({"report": "scan", "p": report.p})[:-2] + ',\n  "rows": ['
        for c, v in islice(rows, len(rows) - 1):
            yield _JSON_ROW % (",".join(map(entry, c)), v) + ","
        yield _JSON_ROW % (",".join(map(entry, rows[-1][0])), rows[-1][1])
        tail = {"max": _row(*report.max_row), "runner_up": _row(*report.runner_up_row)}
        yield "  ]," + _json(tail)[1:]

    return EXIT_OK, {
        "text": lambda: rows(" => "),
        "csv": lambda: rows(";"),
        "json": json_lines,
    }


def _yn(flag: bool) -> str:
    return "yes" if flag else "NO"


def _conjecture_text(v) -> str:
    line = (
        f"p={v.p} all_ones_max={_yn(v.all_ones_is_max)} "
        f"runner_up_pattern={_yn(v.runner_up_is_1_2_ones)} "
        f"runner_up_gt_half={_yn(v.runner_up_exceeds_half_max)}"
    )
    if v.witnesses:
        line += " witnesses=" + "|".join(format_entries(c) for c in v.witnesses)
    return line


def _conjecture_json(v) -> dict:
    witnesses = [format_entries(c) for c in v.witnesses]
    return {"report": "conjecture", **v._asdict(), "witnesses": witnesses}


def cmd_conjecture(args):
    verdicts = check_conjectures(args.max_p, **_limit(args))
    code = EXIT_OK if all(v.ok for v in verdicts) else EXIT_FINDING
    return code, {
        "text": lambda: map(_conjecture_text, verdicts),
        "csv": lambda: (
            f"{v.p};{str(v.all_ones_is_max).lower()};"
            f"{str(v.runner_up_is_1_2_ones).lower()};"
            f"{str(v.runner_up_exceeds_half_max).lower()}"
            for v in verdicts
        ),
        "json": lambda: [
            _json(
                {
                    "report": "conjecture-run",
                    "max_p": args.max_p,
                    "verdicts": [_conjecture_json(v) for v in verdicts],
                }
            )
        ],
    }


def cmd_verify(args):
    report = verify_against_oracle(args.max_n, args.kind, args.seed, **_limit(args))
    found = report.discrepancies
    header = (
        f"kind={report.kind} n=3..{report.max_n} checks={report.checks} "
        f"discrepancies={len(found)}"
    )

    def data():
        return {
            "report": "verify",
            **report._asdict(),
            "discrepancies": [
                {
                    "n": d.n,
                    "type": d.type_key,
                    "oracle": str(d.oracle),
                    "expected": str(d.expected),
                    "note": d.note,
                }
                for d in found
            ],
        }

    return EXIT_OK if report.ok else EXIT_FINDING, {
        "text": lambda: [header] + [
            f"n={d.n} type={d.type_key} oracle={d.oracle} "
            f"expected={d.expected} ({d.note})"
            for d in found
        ],
        "csv": lambda: (
            f"{d.n};{d.type_key};{d.oracle};{d.expected};{d.note}" for d in found
        ),
        "json": lambda: [_json(data())],
    }


def cmd_bench(args):
    report = scan(args.p, **_limit(args))
    comp, value = report.max_row
    line = (
        f"p={report.p} compositions={len(report.rows)} "
        f"max={format_entries(comp)}:{value}"
    )
    return EXIT_OK, dict.fromkeys(FORMATS, lambda: [line])


def main(argv=None) -> int:
    if hasattr(sys, "set_int_max_str_digits"):
        # exact counts can run to any number of digits
        sys.set_int_max_str_digits(0)
    args = build_parser().parse_args(argv)
    start = time.perf_counter()
    try:
        code, renderers = args.func(args)
    except PathCensusError as exc:
        hint = " (pass --force to go further)" if isinstance(exc, TooLarge) else ""
        print(f"error: {exc}{hint}", file=sys.stderr)
        return EXIT_FINDING if isinstance(exc, TheoremViolation) else EXIT_USAGE
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return EXIT_USAGE
    try:
        _write(renderers[args.format]())
    except BrokenPipeError:
        # the reader has gone: point stdout at the null device, so that the
        # flush at exit finds nothing to fail on
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
    print(f"took {time.perf_counter() - start:.3f}s", file=sys.stderr)
    return code


def _write(lines) -> None:
    """Write each line and a newline to stdout, BLOCK_LINES lines at a time."""
    lines = iter(lines)
    while block := list(islice(lines, BLOCK_LINES)):
        block.append("")
        sys.stdout.write("\n".join(block))
    sys.stdout.flush()


if __name__ == "__main__":
    sys.exit(main())

"""CLI surface: formats, exit codes, determinism."""

import contextlib
import io
import json
import os
import re
import subprocess
import sys
from math import comb
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from pathcensus import analysis, cli
from pathcensus.analysis import (
    ConjectureVerdict,
    Discrepancy,
    OracleDiffReport,
    ScanReport,
    check_conjectures,
    scan,
    verify_against_oracle,
)
from pathcensus.engine import f_value
from pathcensus.types import parse_composition

TOOK = re.compile(r"took \d+\.\d{3}s\n")  # the one stderr line of a run
DECIMAL = re.compile(r"[1-9]\d*|0")  # how every count travels in JSON


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_process(*argv, timeout=60):
    # a real `python -m pathcensus.cli` process, killed past `timeout` seconds
    src = Path(__file__).resolve().parents[1] / "src"
    return subprocess.run(
        [sys.executable, "-m", "pathcensus.cli", *argv],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=str(src)),
        timeout=timeout,
    )


# eval ---------------------------------------------------------------------

def test_eval_listing_default_input(capsys):
    code, out, err = run(capsys, "eval", "1,2,1,1")
    assert code == 0
    assert out == "40\n"
    assert "took" in err  # timing goes to the diagnostics stream


def test_eval_paper_value(capsys):
    code, out, _ = run(capsys, "eval", "2,11,5")
    assert (code, out) == (0, "637924\n")


def test_eval_single_block(capsys):
    code, out, _ = run(capsys, "eval", "7")
    assert (code, out) == (0, "1\n")


@pytest.mark.parametrize("arg", ["1,0,1", "x", "", "1,-2"])
def test_eval_usage_errors(capsys, arg):
    code, out, err = run(capsys, "eval", arg)
    assert code == 2
    assert out == ""
    assert "error:" in err


def test_eval_json(capsys):
    code, out, _ = run(capsys, "eval", "1,2", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data == {"report": "eval", "composition": "1,2", "value": "3"}


def test_eval_csv(capsys):
    code, out, _ = run(capsys, "eval", "1,2", "--format", "csv")
    assert (code, out) == (0, "1,2;3\n")


# census ---------------------------------------------------------------------

def test_census_symmetric(capsys):
    code, out, _ = run(capsys, "census", "-n", "3", "1,-1")
    assert (code, out) == (0, "1 symmetric\n")
    code, out, _ = run(capsys, "census", "-n", "401", "--", "200,-200")
    assert (code, out) == (0, f"{comb(400, 200) // 2} symmetric\n")


def test_census_non_symmetric(capsys):
    code, out, _ = run(capsys, "census", "-n", "8", "3,-4")
    assert (code, out) == (0, "35 non-symmetric\n")


def test_census_order_mismatch_is_usage_error(capsys):
    code, out, err = run(capsys, "census", "-n", "4", "1,-1")
    assert code == 2
    assert "error:" in err


def test_census_small_n_is_usage_error(capsys):
    code, _, _ = run(capsys, "census", "-n", "2", "1")
    assert code == 2


def test_census_json(capsys):
    code, out, _ = run(capsys, "census", "-n", "3", "1,-1", "--format", "json")
    data = json.loads(out)
    assert data["symmetric"] is True
    assert data["value"] == "1"
    _, out, _ = run(capsys, "census", "-n", "8", "3,-4", "--format", "json")
    assert json.loads(out) == {
        "report": "census",
        "n": 8,
        "type": "3,-4",
        "symmetric": False,
        "value": "35",
    }


def test_census_negative_leading_type_via_separator(capsys):
    code, out, _ = run(capsys, "census", "-n", "3", "--", "-1,1")
    assert (code, out) == (0, "1 symmetric\n")


def test_values_past_the_int_to_str_digit_limit(capsys):
    # Python's default int -> str limit is 4300 digits
    code, out, _ = run(capsys, "eval", ",".join(["1"] * 1700))
    assert code == 0
    assert len(out.strip()) > 4300
    assert int(out) == f_value((1,) * 1700)


def test_two_block_types_past_the_index_range(capsys):
    big = 10**20
    code, out, _ = run(capsys, "eval", f"{big},1")
    assert (code, out) == (0, f"{big + 1}\n")
    code, out, _ = run(capsys, "census", "-n", str(big + 2), "--", f"1,-{big}")
    assert (code, out) == (0, f"{big + 1} non-symmetric\n")
    # three blocks: the short end is built and the long end summed
    value = "5000000000000000000250000000000000000002"
    code, out, _ = run(capsys, "eval", f"{big},1,1")
    assert (code, out) == (0, f"{value}\n")
    code, out, _ = run(capsys, "census", "-n", str(big + 3), "--", f"1,-1,{big}")
    assert (code, out) == (0, f"{value} non-symmetric\n")


@pytest.mark.parametrize(
    "arg",
    ["100000000000000000000,100000000000000000000", "1,100000000000000000000,1"],
    ids=["both-ends", "interior"],
)
def test_rank_vectors_past_the_index_range_are_usage_errors(arg):
    # refused before any vector is built: no traceback, no unbounded run
    done = run_process("eval", arg, timeout=10)
    assert (done.returncode, done.stdout) == (2, "")
    assert re.fullmatch(r"error: [^\n]*\n", done.stderr)


# scan -----------------------------------------------------------------------


@pytest.mark.parametrize("command", ["scan", "bench"])
@pytest.mark.parametrize("p", ["64", "99999999999999999999"])
def test_a_total_past_the_index_range_is_a_usage_error(capsys, command, p):
    # --force lifts the safety limit, not the machine's index range
    code, out, err = run(capsys, command, "-p", p, "--force")
    assert (code, out) == (2, "")
    assert err == f"error: total must be 1..{sys.maxsize.bit_length()}, got {p}\n"

def test_scan_csv_rows(capsys):
    code, out, _ = run(capsys, "scan", "-p", "3", "--format", "csv")
    assert code == 0
    assert out.splitlines() == ["3;1", "1,2;3", "2,1;3", "1,1,1;5"]


def test_scan_text_rows(capsys):
    code, out, _ = run(capsys, "scan", "-p", "2")
    assert out.splitlines() == ["2 => 1", "1,1 => 2"]


def test_scan_sort_by_composition(capsys):
    _, out, _ = run(capsys, "scan", "-p", "3", "--sort", "composition", "--format", "csv")
    assert out.splitlines() == ["1,1,1;5", "1,2;3", "2,1;3", "3;1"]


def scan_row(entry):
    assert set(entry) == {"composition", "value"}
    assert DECIMAL.fullmatch(entry["value"])
    return parse_composition(entry["composition"]), int(entry["value"])


def test_scan_json_roundtrips(capsys):
    code, out, _ = run(capsys, "scan", "-p", "4", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert list(data) == ["report", "p", "rows", "max", "runner_up"]
    assert (data["report"], data["p"]) == ("scan", 4)
    report = scan(4)
    assert [scan_row(r) for r in data["rows"]] == report.rows
    assert scan_row(data["max"]) == report.max_row == ((1, 1, 1, 1), 16)
    assert scan_row(data["runner_up"]) == report.runner_up_row


def scan_reference(report, fmt, sort):
    # what one print per line, or one json.dumps of the row dicts, writes
    def entries(comp):
        return ",".join(str(e) for e in comp)

    def row(comp, value):
        return {"composition": entries(comp), "value": str(value)}

    if fmt == "json":
        data = {
            "report": "scan",
            "p": report.p,
            "rows": [row(*r) for r in report.rows],
            "max": row(*report.max_row),
            "runner_up": row(*report.runner_up_row),
        }
        return json.dumps(data, indent=2) + "\n"
    rows = report.rows if sort == "value" else sorted(report.rows, key=lambda r: r[0])
    sep = " => " if fmt == "text" else ";"
    return "".join(f"{entries(c)}{sep}{v}\n" for c, v in rows)


@pytest.mark.parametrize("p", range(2, 13))
def test_scan_output_equals_the_reference_render(capsys, monkeypatch, p):
    report = scan(p)
    for block in (cli.BLOCK_LINES, 1, 3):
        monkeypatch.setattr(cli, "BLOCK_LINES", block)
        for fmt in ("text", "csv", "json"):
            for sort in ("value", "composition"):
                code, out, _ = run(capsys, "scan", "-p", str(p), "--format", fmt, "--sort", sort)
                assert (code, out) == (0, scan_reference(report, fmt, sort)), (block, fmt, sort)


def test_scan_output_at_p16_equals_the_reference_render(capsys):
    # the largest scan the benchmark renders
    report = scan(16)
    for fmt, sort in [("csv", "value"), ("json", "value"), ("text", "composition")]:
        code, out, _ = run(capsys, "scan", "-p", "16", "--format", fmt, "--sort", sort)
        assert (code, out) == (0, scan_reference(report, fmt, sort)), (fmt, sort)


def test_big_value_scan_json_equals_the_reference_render(capsys, monkeypatch):
    small, big = ((1, 79), 80), ((40, 40), BIG)
    for rows in ([small, big], [big]):
        report = ScanReport(p=80, rows=rows, max_row=big, runner_up_row=small)
        monkeypatch.setattr(cli, "scan", lambda *a, **k: report)
        code, out, _ = run(capsys, "scan", "-p", "5", "--format", "json")
        assert (code, out) == (0, scan_reference(report, "json", "value"))


def test_scan_over_limit_needs_force(capsys):
    code, _, err = run(capsys, "scan", "-p", "19")
    assert code == 2
    assert "error:" in err


def test_scan_p1_is_usage_error(capsys):
    assert run(capsys, "scan", "-p", "1")[0] == 2


@pytest.mark.parametrize("fmt", ["text", "csv", "json"])
@pytest.mark.parametrize(
    "argv",
    [
        ["eval", "1,2,1,1"],
        ["census", "-n", "6", "2,-3"],
        ["scan", "-p", "8"],
        ["conjecture", "--max-p", "8"],
        ["bench", "-p", "8"],
        ["verify", "--max-n", "6", "--kind", "nearly"],
    ],
    ids=lambda argv: argv[0],
)
def test_jobs_identical_output(capsys, argv, fmt):
    # the same exit code and stdout with --jobs 2 as without it
    serial = run(capsys, *argv, "--format", fmt)[:2]
    assert run(capsys, *argv, "--format", fmt, "--jobs", "2")[:2] == serial


def test_scan_deterministic_bytes(capsys):
    _, first, _ = run(capsys, "scan", "-p", "7", "--format", "json")
    _, second, _ = run(capsys, "scan", "-p", "7", "--format", "json")
    assert first == second


# conjecture ---------------------------------------------------------------------

def test_conjecture_small_run(capsys):
    code, out, _ = run(capsys, "conjecture", "--max-p", "5")
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 3
    assert lines[0].startswith("p=3 all_ones_max=yes")


def verdict_from_json(entry):
    assert entry["report"] == "conjecture"
    return ConjectureVerdict(
        p=entry["p"],
        all_ones_is_max=entry["all_ones_is_max"],
        runner_up_is_1_2_ones=entry["runner_up_is_1_2_ones"],
        runner_up_exceeds_half_max=entry["runner_up_exceeds_half_max"],
        witnesses=[parse_composition(c) for c in entry["witnesses"]],
    )


def test_conjecture_json_verdicts_roundtrip(capsys):
    code, out, _ = run(capsys, "conjecture", "--max-p", "4", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["report"] == "conjecture-run"
    assert data["max_p"] == 4
    verdicts = [verdict_from_json(v) for v in data["verdicts"]]
    assert verdicts == check_conjectures(4)
    assert [v.p for v in verdicts] == [3, 4]
    assert all(v.ok for v in verdicts)


def test_conjecture_csv(capsys):
    _, out, _ = run(capsys, "conjecture", "--max-p", "4", "--format", "csv")
    assert out.splitlines() == ["3;true;true;true", "4;true;true;true"]


def test_conjecture_over_limit_needs_force(capsys):
    assert run(capsys, "conjecture", "--max-p", "19")[0] == 2


def test_conjecture_full_default_range(capsys):
    code, out, _ = run(capsys, "conjecture", "--max-p", "18")
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 16
    assert all("=NO" not in line for line in lines)


def test_conjecture_violation_exits_one(capsys, monkeypatch):
    fake = ConjectureVerdict(
        p=3,
        all_ones_is_max=False,
        runner_up_is_1_2_ones=True,
        runner_up_exceeds_half_max=True,
        witnesses=[(3,)],
    )
    monkeypatch.setattr(cli, "check_conjectures", lambda *a, **k: [fake])
    code, out, _ = run(capsys, "conjecture", "--max-p", "3")
    assert code == 1
    assert "witnesses=3" in out
    code, out, _ = run(capsys, "conjecture", "--max-p", "3", "--format", "json")
    assert code == 1
    (verdict,) = json.loads(out)["verdicts"]
    assert verdict["witnesses"] == ["3"]
    assert verdict_from_json(verdict) == fake


def test_conjecture_walk_off_f_value_exits_one(capsys, monkeypatch):
    # f_value one above the pruned walk on every all-ones composition: the
    # two routes to F(1,...,1) part at p = 3, a TheoremViolation
    real = analysis.f_value
    monkeypatch.setattr(analysis, "f_value", lambda c, memo=None: real(c, memo) + (set(c) == {1}))
    code, out, err = run(capsys, "conjecture", "--max-p", "5")
    assert (code, out) == (1, "")
    assert err == "error: F(1,...,1) at p=3 is 6, but the walk gives 5\n"


# verify ----------------------------------------------------------------------------

def test_verify_transitive_clean(capsys):
    code, out, _ = run(capsys, "verify", "--max-n", "5")
    assert code == 0
    assert "discrepancies=0" in out


def test_verify_transitive_default_range(capsys):
    code, out, _ = run(capsys, "verify", "--max-n", "8")
    assert code == 0
    assert "discrepancies=0" in out


def test_verify_nearly(capsys):
    assert run(capsys, "verify", "--max-n", "5", "--kind", "nearly")[0] == 0


def test_verify_random_seeded(capsys):
    code, out, _ = run(capsys, "verify", "--max-n", "5", "--kind", "random", "--seed", "1")
    assert code == 0
    _, again, _ = run(capsys, "verify", "--max-n", "5", "--kind", "random", "--seed", "1")
    assert out == again


def test_verify_json(capsys):
    code, out, _ = run(capsys, "verify", "--max-n", "4", "--format", "json")
    assert code == 0
    report = verify_against_oracle(4)
    assert json.loads(out) == {
        "report": "verify",
        "kind": "transitive",
        "max_n": 4,
        "seed": None,
        "checks": report.checks,
        "discrepancies": [],
    }
    _, out, _ = run(
        capsys, "verify", "--max-n", "4", "--kind", "random", "--seed", "3", "--format", "json"
    )
    data = json.loads(out)
    assert (data["kind"], data["seed"], data["discrepancies"]) == ("random", 3, [])


def test_verify_over_limit_needs_force(capsys):
    assert run(capsys, "verify", "--max-n", "11")[0] == 2


def test_verify_discrepancy_exits_one(capsys, monkeypatch):
    fake = OracleDiffReport(
        kind="transitive",
        max_n=4,
        seed=None,
        checks=1,
        discrepancies=[Discrepancy(4, "3", 1, 2, "transitive-census")],
    )
    monkeypatch.setattr(cli, "verify_against_oracle", lambda *a, **k: fake)
    code, out, _ = run(capsys, "verify", "--max-n", "4")
    assert code == 1
    assert "n=4 type=3 oracle=1 expected=2" in out


def test_broken_guarantee_exits_one(capsys, monkeypatch):
    # a TheoremViolation is a bug found, not bad input: exit 1, not 2
    monkeypatch.setattr(analysis, "f_value", lambda *a, **k: 7)
    code, out, err = run(capsys, "census", "-n", "5", "--", "2,-2")
    assert (code, out) == (1, "")
    assert err == "error: symmetric type (2, -2) has odd path-function value 7\n"


def test_scan_values_off_their_sum_exit_one(capsys, monkeypatch):
    # one row off by one: the values of p = 4 sum to 61, not 5!/2 = 60
    rows = list(analysis.f_walk(4))
    rows[0] = (rows[0][0], rows[0][1] + 1)
    monkeypatch.setattr(analysis, "f_walk", lambda p: iter(rows))
    code, out, err = run(capsys, "scan", "-p", "4")
    assert (code, out) == (1, "")
    assert err == "error: the values of total 4 sum to 61, not 5!/2\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["eval", "1000000000000,1000000000000"],
        ["census", "-n", "2000000000001", "--", "1000000000000,-1000000000000"],
    ],
)
def test_out_of_memory_is_a_usage_error(capsys, monkeypatch, argv):
    # an end block that long makes the rank DP's vector raise MemoryError;
    # raised here instead of allocated, which only fails fast where the
    # kernel refuses the request
    def out_of_memory(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr(cli, "f_value", out_of_memory)
    monkeypatch.setattr(analysis, "f_value", out_of_memory)
    assert run(capsys, *argv) == (2, "", "error: out of memory\n")


# JSON counts ----------------------------------------------------------------------

BIG = 107507208733336176461620  # C(80, 40), far past 2^53


def test_big_values_survive_json_as_strings(capsys, monkeypatch):
    row = ((40, 40), BIG)
    report = ScanReport(p=80, rows=[row], max_row=row, runner_up_row=row)
    monkeypatch.setattr(cli, "scan", lambda *a, **k: report)
    code, out, _ = run(capsys, "scan", "-p", "5", "--format", "json")
    assert code == 0
    assert f'"{BIG}"' in out
    data = json.loads(out)
    assert data["p"] == 80
    assert [scan_row(r) for r in data["rows"]] == [row]
    assert scan_row(data["max"]) == scan_row(data["runner_up"]) == row

    found = Discrepancy(81, "40,-40", BIG, BIG + 1, "transitive-census")
    fake = OracleDiffReport("transitive", 81, None, 7, [found])
    monkeypatch.setattr(cli, "verify_against_oracle", lambda *a, **k: fake)
    code, out, _ = run(capsys, "verify", "--max-n", "4", "--format", "json")
    assert code == 1
    assert json.loads(out)["discrepancies"] == [
        {
            "n": 81,
            "type": "40,-40",
            "oracle": str(BIG),
            "expected": str(BIG + 1),
            "note": "transitive-census",
        }
    ]


# bench ------------------------------------------------------------------------------

def test_bench_reports_summary(capsys):
    code, out, err = run(capsys, "bench", "-p", "6")
    assert code == 0
    assert out.startswith("p=6 compositions=32 max=1,1,1,1,1,1:")
    assert TOOK.fullmatch(err)


# usage errors -----------------------------------------------------------------------------

@pytest.mark.parametrize(
    "argv",
    [
        ["scan", "-p", "19"],
        ["bench", "-p", "19"],
        ["conjecture", "--max-p", "19"],
        ["verify", "--max-n", "11"],
    ],
    ids=["scan", "bench", "conjecture", "verify"],
)
def test_every_too_large_error_hints_at_force(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert re.fullmatch(r"error: [^\n]* \(pass --force to go further\)\n", err)
    if argv[0] == "conjecture":
        assert err == (
            "error: conjecture check of p=19 exceeds the limit 18 "
            "(pass --force to go further)\n"
        )


SIZE_FLAGS = {
    "census": "-n",
    "scan": "-p",
    "bench": "-p",
    "conjecture": "--max-p",
    "verify": "--max-n",
}
tuple_texts = st.one_of(
    st.lists(st.integers(-4, 12), min_size=1, max_size=5).map(
        lambda xs: ",".join(map(str, xs))
    ),
    st.text(max_size=6),
)


@st.composite
def argvs(draw):
    command = draw(st.sampled_from(["eval", *SIZE_FLAGS, None]))
    if command is None:
        command = draw(st.text(max_size=6))  # a junk subcommand
    force = draw(st.booleans())
    # a forced census past order 9 runs for seconds; unforced, 11 and 12 refuse
    size = draw(st.integers(-3, 9 if command == "verify" and force else 12))
    argv = [command]
    if command in SIZE_FLAGS:
        argv += [SIZE_FLAGS[command], str(size)]
    if command == "verify" and draw(st.booleans()):
        argv += ["--kind", draw(st.sampled_from(["transitive", "nearly", "random", "x"]))]
        argv += ["--seed", str(draw(st.integers()))]
    if draw(st.booleans()):
        argv += ["--format", draw(st.sampled_from(["text", "csv", "json", "xml"]))]
    if command == "scan" or not draw(st.integers(0, 7)):
        argv += ["--sort", draw(st.sampled_from(["value", "composition", "size"]))]
    if draw(st.booleans()):
        argv += ["--jobs", str(draw(st.integers(-1, 2)))]
    if force:
        argv.append("--force")
    if (command == "census" or command not in SIZE_FLAGS) and draw(st.integers(0, 5)):
        argv += ["--"] * draw(st.booleans()) + [draw(tuple_texts)]
    return argv


@settings(max_examples=200, deadline=None)
@given(argvs())
def test_any_argument_list_ends_in_an_exit_code(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse
            code = exc.code
    assert code in (0, 1, 2), (argv, err.getvalue())
    if code == 2:
        assert out.getvalue() == ""


# diagnostics ----------------------------------------------------------------------------

@pytest.mark.parametrize(
    "argv",
    [
        ["eval", "1,2,1,1"],
        ["census", "-n", "8", "3,-4"],
        ["scan", "-p", "4", "--format", "csv"],
        ["conjecture", "--max-p", "4", "--format", "json"],
        ["verify", "--max-n", "5", "--kind", "nearly"],
        ["bench", "-p", "6", "--format", "csv"],
    ],
)
def test_one_timing_line_on_stderr_only(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 0
    assert TOOK.fullmatch(err)
    assert "cache" not in err and "hits=" not in err
    assert "took" not in out


def test_module_entry_point_in_a_real_process():
    done = run_process("scan", "-p", "3", "--format", "csv")
    assert done.returncode == 0
    assert done.stdout == "3;1\n1,2;3\n2,1;3\n1,1,1;5\n"
    assert TOOK.fullmatch(done.stderr)
    refused = run_process("scan", "-p", "19")
    assert (refused.returncode, refused.stdout) == (2, "")
    assert "Traceback" not in refused.stderr


@pytest.mark.parametrize("unbuffered", [True, False], ids=["unbuffered", "buffered"])
def test_a_reader_leaving_early_ends_the_output_not_the_run(unbuffered):
    # `scan -p 16 | head -1`: ≈1 MB of rows, far past any pipe's buffer
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    proc = subprocess.Popen(
        [sys.executable, "-m", "pathcensus.cli", "scan", "-p", "16"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
    )
    try:
        assert proc.stdout.readline() == b"16 => 1\n"
        proc.stdout.close()
        code = proc.wait(timeout=60)
    finally:
        proc.kill()
    err = proc.stderr.read().decode()
    proc.stderr.close()
    assert code == 0
    assert "Traceback" not in err
    assert TOOK.fullmatch(err)


def test_the_cli_imports_json_only_to_render_json():
    # a fresh interpreter: pytest itself has imported both modules already
    script = """
import contextlib, io, sys
bare = set(sys.modules)
from pathcensus import cli
def loaded():
    return sorted({"dataclasses", "json"} & (set(sys.modules) - bare))
print(loaded())
for argv in (["eval", "1,2"], ["census", "-n", "4", "1,-2"], ["scan", "-p", "5", "--format", "csv"],
             ["conjecture", "--max-p", "5"], ["verify", "--max-n", "5", "--kind", "nearly"],
             ["bench", "-p", "5"], ["scan", "-p", "19"]):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        cli.main(argv)
print(loaded())
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    cli.main(["scan", "-p", "5", "--format", "json"])
print(loaded())
"""
    src = Path(__file__).resolve().parents[1] / "src"
    done = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=str(src)),
        timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines() == ["[]", "[]", "['json']"]


# parser ----------------------------------------------------------------------------------

def test_missing_subcommand_is_usage_error(capsys):
    with pytest.raises(SystemExit) as err:
        cli.main([])
    assert err.value.code == 2


@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_jobs_below_one_is_usage_error(capsys, jobs):
    with pytest.raises(SystemExit) as err:
        cli.main(["scan", "-p", "8", "--jobs", jobs])
    assert err.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error:" in captured.err and "--jobs" in captured.err


def test_console_entry_point_importable():
    from pathcensus.cli import main  # the [project.scripts] target

    assert callable(main)

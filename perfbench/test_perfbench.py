"""The benchmark's own tests: smoke runs, the output checker, the refusals.

Run from the repository root:  python3 -m pytest perfbench -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import checker
import run
import tracing
from workloads import SMOKE, WORKLOADS, trace_ops

ROOT = Path(__file__).resolve().parent.parent
DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=170,
    )


def test_declared_metrics_and_workloads_match_the_runner():
    assert {m["name"]: m["unit"] for m in DECLARED["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in DECLARED["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in DECLARED["workloads"]] == list(WORKLOADS)
    assert list(SMOKE) == list(WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_smoke_run_reports_every_metric_and_no_failure(workload, trace):
    done = bench(
        "--workload", workload, "--seed", "3", "--seconds", "1",
        "--trace", str(trace), "--smoke",
    )
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    declared = DECLARED["per_layer" if trace else "end_to_end"]
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == {m["name"]: m["unit"] for m in declared}
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_reference_counts_match_known_values():
    assert checker.updown_count((1, 2, 1, 1)) == 40
    assert checker.updown_count((2, 11, 5)) == 637924
    assert checker.updown_count((1,) * 10) == 353792  # Euler zigzag number E_11
    assert checker.check_scan_csv(3, "3;1\n1,2;3\n2,1;3\n1,1,1;5\n") is None
    assert checker.check_census((3, -4), "35 non-symmetric\n") is None
    assert checker.check_census((2, -2), "3 symmetric\n") is None
    table = checker.scan_table(9)
    assert all(checker.updown_count(c) == v for c, v in table.items())


CORRUPTING_PROGRAM = """
import subprocess, sys
out = subprocess.run(
    [sys.executable, "-m", "pathcensus.cli", *sys.argv[1:]],
    capture_output=True, text=True,
).stdout
if sys.argv[1] == "scan" and "csv" in sys.argv:
    lines = out.splitlines(keepends=True)
    comp, value = lines[len(lines) // 2].rstrip("\\n").split(";")
    value = value[:-1] + str((int(value[-1]) + 1) % 10)
    lines[len(lines) // 2] = f"{comp};{value}\\n"
    out = "".join(lines)
sys.stdout.write(out)
"""


def test_corrupted_scan_row_is_a_failed_operation(tmp_path):
    fake = tmp_path / "corrupt.py"
    fake.write_text(CORRUPTING_PROGRAM, encoding="utf-8")
    runner = run.Runner(ROOT, tmp_path)
    runner.program = [sys.executable, str(fake)]
    outcome = run.timed_run(SMOKE["interactive"], 3, 0.1, runner)
    scans = [s for s in outcome["checked"] if s.argv[0] == "scan" and "csv" in s.argv]
    others = [s for s in outcome["checked"] if s not in scans]
    assert scans, "the seed must draw at least one csv scan"
    assert all(s.problem and "row" in s.problem for s in scans)
    assert not any(s.problem for s in others)


def test_refuses_a_directory_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    (tmp_path / "perfbench").mkdir()
    for path in (ROOT / "perfbench").glob("*.py"):
        shutil.copy(path, tmp_path / "perfbench")
    done = bench(
        "--workload", "oracle", "--seed", "1", "--seconds", "1", "--trace", "0",
        cwd=tmp_path,
    )
    assert done.returncode != 0
    assert done.stdout == ""


def test_traced_replay_restores_every_wrapped_name():
    sys.path.insert(0, str(ROOT / "src"))
    before = [(mod, attr, getattr(mod, attr)) for mod, attr, _ in tracing.boundaries()]
    names = {name for _, _, name in tracing.boundaries()}
    assert {"engine.f_value", "types.derive_children", "oracle.census"} <= names
    tracer = tracing.Tracer()
    with tracing.installed(tracer):
        _, results = tracing.replay(trace_ops(SMOKE["conjecture"], 1), tracer)
    assert results[0][0] == 0
    assert tracer.calls("engine.f_value") > 0
    assert all(getattr(mod, attr) is fn for mod, attr, fn in before)

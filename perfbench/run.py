"""pathcensus benchmark: drives the CLI from outside and checks every output.

Run from the root of a checkout (the directory holding ``src/pathcensus``):

    python3 perfbench/run.py --workload conjecture --seed 1 --seconds 30 --trace 0

``--trace 0`` is a timed run: a closed loop with one client that starts one
``python -m pathcensus.cli`` process at a time and times it from spawn to
exit.  ``--trace 1`` replays a fixed, seeded list of the workload's
operations in-process, untraced and then traced, and reports per-layer
metrics.  Either way the last stdout line is the JSON result; the full
record (environment, every sample, spans, the per-layer table) goes under
``perfbench/results/``.  ``--smoke`` shrinks every input for the
benchmark's own tests.  See ``perfbench/README.md``.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
from dataclasses import asdict, dataclass
from pathlib import Path
from time import perf_counter

import tracing
from workloads import SMOKE, WORKLOADS, Op, take_rounds, trace_ops

END_TO_END = {
    "setup_s": "s",
    "work_per_s": "1/s",
    "query_p50_s": "s",
    "query_p90_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
}
PER_LAYER = {
    "cli.import_s": "s",
    "cli.self_s": "s",
    "cli.stdout_bytes": "bytes",
    "analysis.self_s": "s",
    "analysis.rows_ranked": "count",
    "engine.self_s": "s",
    "engine.f_value.calls": "count",
    "engine.memo_hits": "count",
    "engine.memo_misses": "count",
    "engine.hit_ratio": "ratio",
    "engine.memo_entries_max": "count",
    "types.self_s": "s",
    "types.compositions.yielded": "count",
    "types.derive_children.calls": "count",
    "types.parse.calls": "count",
    "oracle.self_s": "s",
    "oracle.census.calls": "count",
    "oracle.paths_tallied": "count",
    "oracle.type_keys": "count",
    "trace.overhead_ratio": "ratio",
}

SETUP_OP = Op(("eval", "1"), 1, lambda out: None if out == "1\n" else f"eval 1: {out!r}")
SETUP_SAMPLES = 5
IMPORT_SAMPLES = 7
OP_TIMEOUT_S = 60.0
STOP_AFTER_S = 120.0  # start no new operation after this, whatever --seconds says


class BenchError(Exception):
    """The program cannot be benchmarked at all; no result is printed."""


@dataclass
class Sample:
    argv: tuple[str, ...]
    wall_s: float
    cpu_s: float
    rss_kb: int
    problem: str | None  # None when the operation succeeded and its output checked out


class Runner:
    """Spawns one child at a time and reads its resource use with wait4."""

    def __init__(self, root: Path, out_dir: Path) -> None:
        self.root = root
        self.program = [sys.executable, "-m", "pathcensus.cli"]
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"))
        self.out_path = out_dir / f"stdout-{os.getpid()}"
        self.err_path = out_dir / f"stderr-{os.getpid()}"

    def spawn(self, argv, timeout: float):
        """Run ``argv`` to completion; returns (exit code or None on
        timeout, wall s, cpu s, max rss KB, stdout text, stderr tail)."""
        with open(self.out_path, "wb") as out, open(self.err_path, "wb") as err:
            t0 = perf_counter()
            proc = subprocess.Popen(argv, stdout=out, stderr=err, env=self.env, cwd=self.root)
            killed = threading.Event()

            def kill():
                killed.set()
                proc.kill()

            timer = threading.Timer(timeout, kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except ChildProcessError:  # reaped by the timer's kill at the deadline
                status, usage = None, None
            finally:
                timer.cancel()
            wall = perf_counter() - t0
        if status is None:
            proc.wait()
            return None, wall, 0.0, 0, "", "timeout"
        proc.returncode = rc = os.waitstatus_to_exitcode(status)
        if killed.is_set():
            rc = None
        text = self.out_path.read_text(encoding="utf-8", errors="replace")
        tail = self.err_path.read_text(encoding="utf-8", errors="replace")[-300:]
        return rc, wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss, text, tail

    def run(self, op: Op, timeout: float = OP_TIMEOUT_S) -> Sample:
        rc, wall, cpu, rss, text, tail = self.spawn([*self.program, *op.argv], timeout)
        if rc is None:
            problem = f"timed out after {timeout:.0f} s"
        elif rc != 0:
            problem = f"exit code {rc}: {tail.strip()}"
        else:
            problem = op.check(text)
        return Sample(op.argv, wall, cpu, rss, problem)

    def cleanup(self) -> None:
        self.out_path.unlink(missing_ok=True)
        self.err_path.unlink(missing_ok=True)


# environment ----------------------------------------------------------------


def _read(path: str) -> str:
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except OSError:
        return ""


def _steal_ticks() -> int | None:
    for line in _read("/proc/stat").splitlines():
        if line.startswith("cpu "):
            fields = line.split()
            return int(fields[8]) if len(fields) > 8 else None
    return None


def _git(root: Path, *args) -> str | None:
    try:
        done = subprocess.run(
            ["git", "-C", str(root), *args], capture_output=True, text=True, timeout=30
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def environment(root: Path) -> dict:
    """Facts that make a noisy or odd run visible; read-only."""
    toplevel = _git(root, "rev-parse", "--show-toplevel")
    in_repo = toplevel is not None and Path(toplevel).resolve() == root.resolve()
    dirty = _git(root, "status", "--porcelain", "--untracked-files=no") if in_repo else None
    cpu_model = next(
        (
            line.split(":", 1)[1].strip()
            for line in _read("/proc/cpuinfo").splitlines()
            if line.startswith("model name")
        ),
        platform.processor() or None,
    )
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "git_sha": _git(root, "rev-parse", "HEAD") if in_repo else None,
        "git_dirty": bool(dirty) if dirty is not None else None,
        "cpu_model": cpu_model,
        "loadavg_start": _read("/proc/loadavg").split()[:3],
    }


# timed run -------------------------------------------------------------------


def _quantile(values: list[float], q: int) -> float:
    """The q-th decile, interpolated between samples."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[q - 1]


def timed_run(workload, seed: int, seconds: float, runner: Runner) -> dict:
    warm = runner.run(SETUP_OP)  # compiles bytecode; not a sample
    if warm.problem:
        raise BenchError(f"the program does not run: {warm.problem}")
    # set-up is sampled before the loop and after every round, so its median
    # spans the same stretch of machine time as the work
    setup = [runner.run(SETUP_OP) for _ in range(SETUP_SAMPLES)]

    samples: list[Sample] = []
    rates: list[float] = []  # per round: work units per second of wall
    cpus: list[float] = []  # per round: CPU seconds per operation
    start = perf_counter()
    for n_rounds, ops in enumerate(take_rounds(workload, seed), 1):
        done = []
        for op in ops:
            left = STOP_AFTER_S + OP_TIMEOUT_S - (perf_counter() - start)
            done.append(runner.run(op, timeout=max(1.0, min(OP_TIMEOUT_S, left))))
        samples.extend(done)
        work = sum(op.work for op, s in zip(ops, done) if not s.problem)
        rates.append(work / sum(s.wall_s for s in done))
        cpus.append(sum(s.cpu_s for s in done) / len(done))
        setup.append(runner.run(SETUP_OP))
        elapsed = perf_counter() - start
        if elapsed >= STOP_AFTER_S or (elapsed >= seconds and n_rounds >= workload.min_rounds):
            break

    # Rates and CPU are medians over rounds: each round holds the same mix,
    # and a median shrugs off the rounds a noisy neighbour slowed down.
    latencies = [s.wall_s if not s.problem else OP_TIMEOUT_S for s in samples]
    metrics = {
        "setup_s": statistics.median(s.wall_s for s in setup),
        "work_per_s": statistics.median(rates),
        "query_p50_s": statistics.median(latencies),
        "query_p90_s": _quantile(latencies, 9),
        "cpu_s": statistics.median(cpus),
        "peak_rss_mb": max(s.rss_kb for s in samples) / 1024,
    }
    return {
        "metrics": metrics,
        "units": END_TO_END,
        "work_unit": workload.unit,
        "rounds": n_rounds,
        "round_rates": rates,
        "round_cpu_s": cpus,
        "setup_samples": [asdict(s) for s in setup],
        "samples": [asdict(s) for s in samples],
        "checked": setup + samples,
    }


# traced run ------------------------------------------------------------------


def import_seconds(runner: Runner, samples: int) -> tuple[float, list[Sample]]:
    """Median wall of ``import pathcensus.cli`` minus that of a bare interpreter."""
    probes: list[Sample] = []
    walls: dict[str, list[float]] = {"import": [], "bare": []}
    for _ in range(samples):
        for key, code in (("import", "import pathcensus.cli"), ("bare", "pass")):
            argv = [sys.executable, "-c", code]
            rc, wall, cpu, rss, _, tail = runner.spawn(argv, OP_TIMEOUT_S)
            problem = None if rc == 0 else f"python -c {code!r}: {rc} {tail.strip()}"
            probes.append(Sample(tuple(argv[1:]), wall, cpu, rss, problem))
            walls[key].append(wall)
    return statistics.median(walls["import"]) - statistics.median(walls["bare"]), probes


def traced_run(workload, seed: int, runner: Runner, root: Path, stem: Path, smoke: bool) -> dict:
    import_s, probes = import_seconds(runner, 3 if smoke else IMPORT_SAMPLES)
    sys.path.insert(0, str(root / "src"))
    try:
        import pathcensus.cli  # noqa: F401  (imported before either replay is timed)
    except ImportError as exc:
        raise BenchError(f"cannot import pathcensus.cli: {exc}") from exc

    ops = trace_ops(workload, seed)
    untraced_s, plain = tracing.replay(ops)
    tracer = tracing.Tracer()
    with tracing.installed(tracer):
        traced_s, traced = tracing.replay(ops, tracer)

    checked = list(probes)
    for results in (plain, traced):
        for op, (rc, text, err) in zip(ops, results):
            problem = f"exit code {rc}: {err.strip()}" if rc != 0 else op.check(text)
            checked.append(Sample(op.argv, 0.0, 0.0, 0, problem))

    stdout_bytes = sum(len(text.encode()) for _, text, _ in traced)
    metrics = {"cli.import_s": import_s}
    metrics.update(tracing.layer_metrics(tracer, stdout_bytes, traced_s / untraced_s))

    table = tracing.layer_table(tracer, untraced_s, traced_s)
    stem.with_name(stem.name + "-layers.txt").write_text(table, encoding="utf-8")
    with open(stem.with_name(stem.name + "-spans.json"), "w", encoding="utf-8") as fh:
        json.dump(
            {
                "fields": tracing.SPAN_FIELDS,
                "ops": [list(op.argv) for op in ops],
                "dropped": tracer.dropped,
                "spans": tracer.spans,
            },
            fh,
        )
    return {
        "metrics": metrics,
        "units": PER_LAYER,
        "ops": [list(op.argv) for op in ops],
        "untraced_s": untraced_s,
        "traced_s": traced_s,
        "checked": checked,
    }


# entry point -----------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny inputs, for tests")
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "pathcensus" / "cli.py").is_file():
        print(f"perfbench: no src/pathcensus/cli.py under {root}", file=sys.stderr)
        return 2
    workload = (SMOKE if args.smoke else WORKLOADS)[args.workload]
    results_dir = root / "perfbench" / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    stem = results_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}"

    env = environment(root)
    steal0 = _steal_ticks()
    t0 = perf_counter()
    runner = Runner(root, results_dir)
    try:
        if args.trace:
            run = traced_run(workload, args.seed, runner, root, stem, args.smoke)
        else:
            run = timed_run(workload, args.seed, args.seconds, runner)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    finally:
        runner.cleanup()
    steal1 = _steal_ticks()
    env["run_wall_s"] = perf_counter() - t0
    env["steal_s"] = (
        (steal1 - steal0) / os.sysconf("SC_CLK_TCK") if None not in (steal0, steal1) else None
    )

    checked = run.pop("checked")
    failures = [f"{' '.join(s.argv)}: {s.problem}" for s in checked if s.problem]
    result = {
        "correct": not failures,
        "attempted": len(checked),
        "failed": len(failures),
        "metrics": {
            name: {"value": value, "unit": run["units"][name]}
            for name, value in run.pop("metrics").items()
        },
    }
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "smoke": args.smoke, "environment": env, "failures": failures, **run,
              "result": result}
    stem.with_suffix(".json").write_text(json.dumps(record, indent=1), encoding="utf-8")
    for line in failures[:20]:
        print(f"FAILED {line}", file=sys.stderr)
    print("environment " + json.dumps(env))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())

"""Outside-in per-layer tracing of the ``pathcensus`` modules.

The traced run replays a workload's operations in-process through
``pathcensus.cli.main(argv)``.  While it runs, every function one layer
imports from another (``pathcensus.cli.check_conjecture``,
``pathcensus.analysis.f_value``, ``pathcensus.engine.derive_children``, ...)
is swapped for a timing wrapper; the originals are put back afterwards.
Nothing under ``src/`` is edited.

A span has a name, start, end, parent and operation id.  A layer's self
time is its spans' time minus the time their child spans cover.  Spans
nest strictly (one thread), so the covered time is the sum of the children's
durations and self time is computed as each span closes.  A generator is
timed while it is consumed: each resume is a span of its own in the totals,
and the span file holds one record per generator with its summed time.
"""

import functools
import importlib
import inspect
import io
from collections import defaultdict
from contextlib import contextmanager, redirect_stderr, redirect_stdout
from time import perf_counter

LAYERS = ("types", "engine", "oracle", "analysis", "cli")
SPAN_FIELDS = ("id", "parent", "op", "name", "start_s", "end_s", "self_s")
ROOT = "cli.main"


class Tracer:
    """Spans and counters of one traced replay, kept in memory.

    At most ``span_cap`` span records are kept per operation (the first
    ones, so the root and the top of the tree survive); ``stats`` and
    ``counters`` cover every span.  The wrappers' own bookkeeping is timed
    apart (``bookkeeping_s``) and charged to no layer.
    """

    def __init__(self, span_cap: int = 2000) -> None:
        self.span_cap = span_cap
        self.t0 = perf_counter()
        self.stack: list[list] = []  # frames: [child time, span record or None]
        self.stats: dict[str, list] = {}  # name -> [calls, total s, self s]
        self.counters: dict[str, int] = defaultdict(int)
        self.spans: list[list] = []
        self.dropped = 0
        self.bookkeeping_s = 0.0
        self.op = 0
        self.room = 0  # span records the current operation may still keep

    def stat(self, name: str) -> list:
        return self.stats.setdefault(name, [0, 0.0, 0.0])

    def calls(self, name: str) -> int:
        return self.stats.get(name, (0,))[0]

    def open(self, name: str, start: float) -> list | None:
        """Span record for a span starting now, or None past the cap."""
        if self.room <= 0:
            self.dropped += 1
            return None
        self.room -= 1
        parent = self.stack[-1][1] if self.stack else None
        rec = [len(self.spans), parent and parent[0], self.op, name, start - self.t0, None, 0.0]
        self.spans.append(rec)
        return rec

    def close(self, stat: list, frame: list, t_in: float, t_start: float, t_end: float) -> None:
        """Account a span whose frame was just popped.

        ``t_start``..``t_end`` is the wrapped call; ``t_in`` is when the
        wrapper was entered.  The parent sees the whole wrapper as child
        time, so bookkeeping lands in no layer's self time.
        """
        dur = t_end - t_start
        own = dur - frame[0]
        stat[1] += dur
        stat[2] += own
        rec = frame[1]
        if rec is not None:
            rec[5] = t_end - self.t0
            rec[6] += own
        t_out = perf_counter()
        if self.stack:
            self.stack[-1][0] += t_out - t_in
        self.bookkeeping_s += t_out - t_in - dur

    def run_op(self, op_id: int, fn, *args):
        """Call ``fn(*args)`` as the root span of operation ``op_id``."""
        self.op = op_id
        self.room = self.span_cap
        stat = self.stat(ROOT)
        t_in = perf_counter()
        stat[0] += 1
        frame = [0.0, self.open(ROOT, t_in)]
        self.stack.append(frame)
        t_start = perf_counter()
        try:
            return fn(*args)
        finally:
            t_end = perf_counter()
            self.stack.pop()
            self.close(stat, frame, t_in, t_start, t_end)

    def layer_self(self, layer: str) -> float:
        return sum((v[2] for k, v in self.stats.items() if k.split(".")[0] == layer), 0.0)


class _TracedGenerator:
    """Times a generator while it is consumed, one span per resume.

    Resumes add to the span record of the call that made the generator.
    """

    def __init__(self, tracer: Tracer, stat: list, rec: list | None, gen, hook) -> None:
        self.tracer = tracer
        self.stat = stat
        self.rec = rec
        self.gen = gen
        self.hook = hook

    def __iter__(self):
        return self

    def __next__(self):
        tracer = self.tracer
        t_in = perf_counter()
        frame = [0.0, self.rec]
        tracer.stack.append(frame)
        yielded = False
        t_start = perf_counter()
        try:
            item = next(self.gen)
            yielded = True
        finally:
            t_end = perf_counter()
            tracer.stack.pop()
            if yielded and self.hook:
                self.hook(tracer)
            tracer.close(self.stat, frame, t_in, t_start, t_end)
        return item


# counters read at the boundaries -------------------------------------------


def _memo_of(args, kwargs):
    memo = args[1] if len(args) > 1 else kwargs.get("memo")
    return memo if hasattr(memo, "hits") and hasattr(memo, "misses") else None


def _f_value_before(args, kwargs):
    memo = _memo_of(args, kwargs)
    return (memo, memo.hits, memo.misses) if memo is not None else None


def _f_value_after(tracer, state, result):
    if state is None:
        return
    memo, hits, misses = state
    c = tracer.counters
    c["engine.memo_hits"] += memo.hits - hits
    c["engine.memo_misses"] += memo.misses - misses
    c["engine.memo_entries_max"] = max(c["engine.memo_entries_max"], len(memo))


def _scan_after(tracer, state, result):
    tracer.counters["analysis.rows_ranked"] += len(result.rows)


def _census_after(tracer, state, result):
    tracer.counters["oracle.paths_tallied"] += result.total()
    tracer.counters["oracle.type_keys"] += len(result.counts)


def _composition_yielded(tracer):
    tracer.counters["types.compositions.yielded"] += 1


HOOKS = {
    "engine.f_value": (_f_value_before, _f_value_after),
    "analysis.scan": (None, _scan_after),
    "oracle.census": (None, _census_after),
}
GENERATOR_HOOKS = {"types.compositions": _composition_yielded}

# Same-layer names also wrapped: check_conjecture ranks its rows through the
# module-global scan, which is how analysis.rows_ranked sees them.
EXTRA_WRAPS = (("analysis", "scan"),)


def _wrap(tracer: Tracer, name: str, fn):
    before, after = HOOKS.get(name, (None, None))
    gen_hook = GENERATOR_HOOKS.get(name)
    stat = tracer.stat(name)
    stack = tracer.stack

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        t_in = perf_counter()
        stat[0] += 1
        frame = [0.0, tracer.open(name, t_in)]
        stack.append(frame)
        state = before(args, kwargs) if before else None
        done = False
        t_start = perf_counter()
        try:
            result = fn(*args, **kwargs)
            done = True
        finally:
            t_end = perf_counter()
            stack.pop()
            if done:
                if after:
                    after(tracer, state, result)
                if inspect.isgenerator(result):
                    result = _TracedGenerator(tracer, stat, frame[1], result, gen_hook)
            tracer.close(stat, frame, t_in, t_start, t_end)
        return result

    return traced


def boundaries():
    """(module, attribute, span name) for every cross-layer function name."""
    mods = {layer: importlib.import_module(f"pathcensus.{layer}") for layer in LAYERS}
    found = []
    for caller, mod in mods.items():
        for attr, value in vars(mod).items():
            if not inspect.isfunction(value):
                continue
            callee = value.__module__.rpartition(".")[2]
            if value.__module__.startswith("pathcensus.") and callee in LAYERS and callee != caller:
                found.append((mod, attr, f"{callee}.{value.__name__}"))
    for layer, attr in EXTRA_WRAPS:
        value = getattr(mods[layer], attr, None)
        if inspect.isfunction(value):
            found.append((mods[layer], attr, f"{layer}.{value.__name__}"))
    return found


@contextmanager
def installed(tracer: Tracer):
    """Wrappers in place for the body of the ``with``, originals after."""
    saved = []
    try:
        for mod, attr, name in boundaries():
            original = getattr(mod, attr)
            saved.append((mod, attr, original))
            setattr(mod, attr, _wrap(tracer, name, original))
        yield tracer
    finally:
        for mod, attr, original in reversed(saved):
            setattr(mod, attr, original)


def replay(ops, tracer: Tracer | None = None):
    """Run each op through ``cli.main`` with stdout captured.

    Returns (summed wall time, [(exit code, stdout text, error text)]).
    Each op is timed on its own, so nothing between ops is counted.
    """
    from pathcensus import cli

    wall = 0.0
    results = []
    for i, op in enumerate(ops):
        out, err = io.StringIO(), io.StringIO()
        problem = None
        t0 = perf_counter()
        with redirect_stdout(out), redirect_stderr(err):
            try:
                if tracer is None:
                    rc = cli.main(list(op.argv))
                else:
                    rc = tracer.run_op(i, cli.main, list(op.argv))
            except SystemExit as exc:
                rc = exc.code
            except Exception as exc:  # a crash is a failed operation, not a crashed benchmark
                rc, problem = None, f"{type(exc).__name__}: {exc}"
        wall += perf_counter() - t0
        results.append((rc, out.getvalue(), problem or err.getvalue()[-300:]))
    return wall, results


def layer_metrics(tracer: Tracer, stdout_bytes: int, overhead: float) -> dict:
    """Per-layer metric values from one traced replay."""
    calls, c = tracer.calls, tracer.counters
    probes = c["engine.memo_hits"] + c["engine.memo_misses"]
    return {
        "cli.self_s": tracer.layer_self("cli"),
        "cli.stdout_bytes": stdout_bytes,
        "analysis.self_s": tracer.layer_self("analysis"),
        "analysis.rows_ranked": c["analysis.rows_ranked"],
        "engine.self_s": tracer.layer_self("engine"),
        "engine.f_value.calls": calls("engine.f_value"),
        "engine.memo_hits": c["engine.memo_hits"],
        "engine.memo_misses": c["engine.memo_misses"],
        "engine.hit_ratio": c["engine.memo_hits"] / probes if probes else 0.0,
        "engine.memo_entries_max": c["engine.memo_entries_max"],
        "types.self_s": tracer.layer_self("types"),
        "types.compositions.yielded": c["types.compositions.yielded"],
        "types.derive_children.calls": calls("types.derive_children"),
        "types.parse.calls": calls("types.parse_composition")
        + calls("types.parse_signed_type"),
        "oracle.self_s": tracer.layer_self("oracle"),
        "oracle.census.calls": calls("oracle.census"),
        "oracle.paths_tallied": c["oracle.paths_tallied"],
        "oracle.type_keys": c["oracle.type_keys"],
        "trace.overhead_ratio": overhead,
    }


def layer_table(tracer: Tracer, untraced_s: float, traced_s: float) -> str:
    """Human-readable per-span-name and per-layer table, ratios with bases."""
    lines = [f"{'span':32s} {'calls':>9s} {'total_s':>10s} {'self_s':>10s}"]
    for name in sorted(tracer.stats, key=lambda k: (LAYERS.index(k.split(".")[0]), k)):
        calls, total, own = tracer.stats[name]
        if calls:
            lines.append(f"{name:32s} {calls:9d} {total:10.4f} {own:10.4f}")
    lines.append("")
    lines.append(f"{'layer':32s} {'self_s':>10s} {'share':>7s}")
    for layer in LAYERS:
        own = tracer.layer_self(layer)
        lines.append(f"{layer:32s} {own:10.4f} {own / traced_s:7.1%}")
    lines.append(
        f"{'(tracing bookkeeping)':32s} {tracer.bookkeeping_s:10.4f} "
        f"{tracer.bookkeeping_s / traced_s:7.1%}"
    )
    c = tracer.counters
    probes = c["engine.memo_hits"] + c["engine.memo_misses"]
    lines.append("")
    if probes:
        lines.append(
            f"engine.hit_ratio = {c['engine.memo_hits']} hits / {probes} probes "
            f"= {c['engine.memo_hits'] / probes:.4f}"
        )
    lines.append(
        f"trace.overhead_ratio = {traced_s:.4f} s traced / {untraced_s:.4f} s untraced "
        f"= {traced_s / untraced_s:.4f}"
    )
    lines.append(f"span records kept {len(tracer.spans)}, dropped {tracer.dropped}")
    return "\n".join(lines) + "\n"

"""End-to-end benchmark of the ORM serving stack, with a per-layer trace.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload read_zipf_memory --seed 1 --seconds 25 --trace 0

Workloads (see ``perfbench/NOTES.md``): ``read_zipf_sqlite``,
``read_zipf_memory``, ``write_mix``, ``evolve_suite``.  Every answer and
every SMO verdict is checked against an oracle outside the timed region.

A run is a fixed number of closed-loop steps, sized from ``--seconds``
at each workload's nominal step time (``steps_for``), so every run of a
workload makes the same operations: the mix its latencies average over,
and its count of failed operations, do not depend on how fast the
machine happened to be.

``--trace 0`` sets up the workload several times (``setup_s`` is the
median), then runs the steps and reports the end-to-end metrics.
``--trace 1`` runs the same steps on one set-up in alternating
segments, untraced and with the layer wrappers installed, and reports
the per-layer metrics of the traced segments plus the difference
between the two kinds of segment as tracing overhead; the spans go to
``.perfbench_out/``.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  Without the program's
sources next to this directory the run exits with code 2 and prints no
result.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import os
import resource
import statistics
import sys
import time
from types import SimpleNamespace

import layers  # no program imports: safe before the path is set

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

#: set-up runs at least SETUP_MIN times (a workload's ``setup_min``
#: when it sets one) and until SETUP_SECONDS have passed (at most
#: SETUP_MAX times), half before the measured phase and half after it;
#: setup_s is the median, so cheap set-ups get more samples than
#: expensive ones
SETUP_MIN = 4
SETUP_MAX = 16
SETUP_SECONDS = 2.0
#: a traced run alternates this many untraced/traced pairs of segments
PAIRS = 3

#: the gated metrics.  Latencies are means: every workload's reads are
#: bimodal (tier hit or not, first touch or not, by request shape), and a
#: median gate flips between modes from run to run; the table printed
#: above the result gives medians and p90 with their sample counts.
END_TO_END = [
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("op_mean_ms", "ms"),
    ("query_mean_ms", "ms"),
    ("query_repeat_mean_ms", "ms"),
    ("peak_rss_mb", "MB"),
]


def _import_program():
    """Put this checkout's ``src`` first on the path and import it."""
    src = os.path.join(ROOT, "src")
    sys.path.insert(0, src)
    try:
        import repro
    except ImportError as exc:
        return f"cannot import the program from {src}: {exc}"
    if not os.path.abspath(repro.__file__).startswith(src + os.sep):
        return f"imported repro from {repro.__file__}, not from {src}"
    return None


class Timer:
    """Times one client operation; when tracing, the operation is also
    the root span its layer spans hang from."""

    def __init__(self, tracer=None) -> None:
        self.tracer = tracer

    @contextlib.contextmanager
    def __call__(self):
        box = SimpleNamespace(seconds=0.0)
        span = self.tracer.open_root(layers.CLIENT) if self.tracer else None
        started = time.perf_counter()
        try:
            yield box
        finally:
            box.seconds = time.perf_counter() - started
            if span is not None:
                self.tracer.close_root(span)


def _samples(rec, kind: str, first=None):
    return [s for k, s, f, _ in rec.ops if k == kind and (first is None or f == first)]


def _op_samples(rec, op_kind: str):
    if op_kind == "first":
        return _samples(rec, "query", True)
    return _samples(rec, op_kind)


def steps_for(workload, seconds: float) -> int:
    """The fixed number of steps a run of *seconds* makes: *seconds* at
    the workload's nominal step time, rounded to whole rounds (an
    ``evolve_suite`` round is one pass over the SMO suite)."""
    per_round = getattr(workload, "steps_per_round", 1)
    rounds = max(1, round(seconds / (workload.step_seconds * per_round)))
    return rounds * per_round


def _loop(workload, ctx, steps: int, tracer=None, rec=None):
    """The measured phase: *steps* closed-loop steps, recorded into
    *rec*.  A workload's ``prepare`` hook runs between steps, outside
    the measured time."""
    from loads import Recorder

    rec = Recorder() if rec is None else rec
    timer = Timer(tracer)
    prepare = getattr(workload, "prepare", None)
    before = workload.harvest(ctx)
    if tracer is not None:
        layers.install(tracer)
    started = time.perf_counter()
    excluded = 0.0
    try:
        for _ in range(steps):
            if prepare is not None:
                mark = time.perf_counter()
                prepare(ctx)
                excluded += time.perf_counter() - mark
            workload.step(ctx, rec, timer)
        elapsed = time.perf_counter() - started - excluded
    finally:
        if tracer is not None:
            tracer.unwrap()
    after = workload.harvest(ctx)
    rec.client["cost_cells"] = after.get("results.cost", 0.0)
    return rec, elapsed, layers.diff(after, before)


def _ms(values, q: float):
    """The q-quantile of *values* in ms, or None when it would have fewer
    than ten samples beyond it."""
    if not values or (q > 0.5 and len(values) * (1 - q) < 10):
        return None
    if q == 0.5:
        return statistics.median(values) * 1000.0
    return statistics.quantiles(values, n=100, method="inclusive")[round(q * 100) - 1] * 1000.0


def _mean_ms(values):
    return statistics.fmean(values) * 1000.0 if values else None


def _report(name: str, rec, elapsed: float, setups, op_kind: str, rss: float) -> dict:
    """Print the issue-level table (every metric the workload's ops
    produce, with its sample count) and return the gated metrics."""
    queries = _samples(rec, "query")
    first = _samples(rec, "query", True)
    repeat = _samples(rec, "query", False)
    rows = [
        ("setup_s", statistics.median(setups), "s", len(setups)),
        ("ops_per_s", len(rec.ops) / elapsed, "1/s", len(rec.ops)),
        ("failed_op_ratio", rec.failed / max(1, len(rec.ops)), "ratio", len(rec.ops)),
        ("peak_rss_mb", rss, "MB", 1),
        ("query_p50_ms", _ms(queries, 0.5), "ms", len(queries)),
        ("query_p90_ms", _ms(queries, 0.9), "ms", len(queries)),
        ("query_first_p50_ms", _ms(first, 0.5), "ms", len(first)),
        ("query_first_p90_ms", _ms(first, 0.9), "ms", len(first)),
        ("query_repeat_p50_ms", _ms(repeat, 0.5), "ms", len(repeat)),
        ("query_mean_ms", _mean_ms(queries), "ms", len(queries)),
        ("query_repeat_mean_ms", _mean_ms(repeat), "ms", len(repeat)),
        ("op_mean_ms", _mean_ms(_op_samples(rec, op_kind)), "ms",
         len(_op_samples(rec, op_kind))),
    ]
    for kind in ("save_delta", "evolve", "undo"):
        values = _samples(rec, kind)
        if values:
            rows.append((f"{kind}_p50_ms", _ms(values, 0.5), "ms", len(values)))
            if kind != "undo":
                rows.append((f"{kind}_p90_ms", _ms(values, 0.9), "ms", len(values)))
    print(f"# {name}: {len(rec.ops)} ops in {elapsed:.2f} s, "
          f"{rec.failed} failed ({rec.wrong} wrong answers)")
    for metric, value, unit, n in rows:
        shown = "n/a (too few samples)" if value is None else f"{value:.4f} {unit}"
        print(f"#   {metric:22s} {shown:28s} n={n}")
    for note, count in sorted(rec.notes.items()):
        print(f"#   outcome {note}: {count}")
    return {
        "setup_s": statistics.median(setups),
        "ops_per_s": len(rec.ops) / elapsed,
        "op_mean_ms": _mean_ms(_op_samples(rec, op_kind)),
        "query_mean_ms": _mean_ms(queries),
        "query_repeat_mean_ms": _mean_ms(repeat),
        "peak_rss_mb": rss,
    }


def _set_ups(workload, setups, keep_last: bool):
    """Half of the set-up samples, appended to *setups*; the last
    context when *keep_last*, else None (every context torn down)."""
    taken, spent, ctx = 0, 0.0, None
    least = getattr(workload, "setup_min", SETUP_MIN)
    while taken < least // 2 or (
        spent < SETUP_SECONDS / 2 and taken < SETUP_MAX // 2
    ):
        if ctx is not None:
            workload.teardown(ctx)
        # each set-up starts from a collected heap, so no sample pays
        # for the garbage of the one before
        gc.collect()
        started = time.perf_counter()
        ctx = workload.setup()
        setups.append(time.perf_counter() - started)
        taken += 1
        spent += setups[-1]
    if keep_last:
        return ctx
    workload.teardown(ctx)
    return None


def _measure(workload, steps: int):
    """Set up repeatedly, measure once on the last set-up, then set up
    repeatedly again: (recorder, measured seconds, set-up seconds).
    Sampling set-up at both ends of the run keeps one slow spell of the
    machine from deciding ``setup_s``."""
    setups = []
    ctx = _set_ups(workload, setups, True)
    try:
        rec, elapsed, _ = _loop(workload, ctx, steps)
    finally:
        workload.teardown(ctx)
    _set_ups(workload, setups, False)
    return rec, elapsed, setups


def _rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _result(name: str, seed: int, op_kind: str, rec, elapsed: float, setups, rss: float):
    """Dump the per-op latencies, print the report, return the metrics."""
    from loads import OUT_DIR

    os.makedirs(OUT_DIR, exist_ok=True)
    with open(os.path.join(OUT_DIR, f"ops_{name}_{seed}.json"), "w", encoding="utf-8") as out:
        json.dump({"setups": setups, "ops": rec.ops, "notes": rec.notes}, out)
    metrics = _report(name, rec, elapsed, setups, op_kind, rss)
    missing = [k for k, v in metrics.items() if v is None]
    if missing:
        raise RuntimeError(f"no samples for {missing}")
    return {k: {"value": metrics[k], "unit": unit} for k, unit in END_TO_END}


def run_untraced(name: str, workload, steps: int, seed: int):
    """Generated *workload*, measured for *steps* steps."""
    rec, elapsed, setups = _measure(workload, steps)
    return rec, _result(name, seed, workload.op_kind, rec, elapsed, setups, _rss_mb())


def _print_layers(tracer, only_roots, label: str) -> None:
    """Self time per layer over the chosen client operations."""
    from spans import NAME

    root = tracer.root_ms(only_roots)
    count = sum(
        1 for i, span in enumerate(tracer.spans)
        if span[NAME] == layers.CLIENT and (only_roots is None or i in only_roots)
    )
    print(f"#  layer self time over {label} ({count} ops, {root:.1f} ms):")
    totals = layers.layer_totals(tracer.rollup(only_roots))
    for layer, ms in sorted(totals.items(), key=lambda kv: -kv[1]):
        if ms >= 0.05:
            print(f"#   {layer:24s} {ms:12.1f} ms  {100.0 * ms / root if root else 0.0:5.1f}%")


def _overhead_pct(plain, traced) -> float:
    """Traced over untraced time for the same kinds of operation.

    Each traced operation is priced at the untraced mean of its kind
    (kind, first touch, tag); the overhead is the traced time over that
    price.  Operations of a kind no untraced segment ran are left out."""
    groups = {}
    for kind, seconds, first, tag in plain.ops:
        groups.setdefault((kind, first, tag), []).append(seconds)
    means = {key: statistics.fmean(values) for key, values in groups.items()}
    spent = price = 0.0
    for kind, seconds, first, tag in traced.ops:
        mean = means.get((kind, first, tag))
        if mean is not None:
            spent += seconds
            price += mean
    return (spent / price - 1.0) * 100.0 if price else 0.0


def run_traced(name: str, workload, steps: int, seed: int):
    """One set-up, measured for *steps* steps in PAIRS untraced/traced
    pairs of segments; the per-layer metrics cover the traced segments."""
    from loads import OUT_DIR, Recorder
    from spans import Tracer

    tracer = Tracer()
    plain, traced = Recorder(), Recorder()
    elapsed, stats = 0.0, {}
    # segment i runs steps [i * steps // n, (i + 1) * steps // n)
    bounds = [i * steps // (2 * PAIRS) for i in range(2 * PAIRS + 1)]
    ctx = workload.setup()
    try:
        for pair in range(PAIRS):
            lo, mid, hi = bounds[2 * pair:2 * pair + 3]
            _loop(workload, ctx, mid - lo, None, plain)
            _, part, delta = _loop(workload, ctx, hi - mid, tracer, traced)
            elapsed += part
            stats = layers.summed(stats, delta)
        passes = ctx.get("pass_seconds")
        if passes:
            traced.client["pass_drift_ratio"] = passes[-1] / passes[0]
    finally:
        workload.teardown(ctx)
    values = layers.per_layer(tracer, stats, traced.client)
    values["trace.overhead_pct"] = _overhead_pct(plain, traced)
    os.makedirs(OUT_DIR, exist_ok=True)
    tracer.dump(os.path.join(OUT_DIR, f"spans_{name}_{seed}.jsonl"))
    print(f"# {name} traced: {len(traced.ops)} traced and {len(plain.ops)} untraced ops "
          f"in {PAIRS} alternating pairs, {len(tracer.spans)} spans, overhead "
          f"{values['trace.overhead_pct']:.1f}%; the program's layers account for "
          f"{values['trace.attributed_ratio']:.3f} of the traced end-to-end time, "
          f"the client span for the rest")
    _print_layers(tracer, None, "all traced operations")
    for marker, label in (
        ("query.resultcache.populate", "reads that populated the result tier"),
        ("engine.apply_script", "save_delta requests"),
        ("engine.evolve_many", "evolve calls"),
    ):
        chosen = tracer.roots_containing(marker)
        if chosen:
            _print_layers(tracer, chosen, label)
    result = {
        key: {"value": float(values[key]), "unit": layers.unit_of(key)}
        for key in layers.metric_names()
    }
    rec = Recorder()
    rec.ops = plain.ops + traced.ops
    rec.failed = plain.failed + traced.failed
    rec.wrong = plain.wrong + traced.wrong
    return rec, result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    problem = _import_program()
    if problem is not None:
        print(problem, file=sys.stderr)
        return 2
    from loads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]()
    workload.generate(args.seed)
    steps = steps_for(workload, args.seconds)
    # the generated inputs and oracles live as long as the run; keep
    # them out of the collector's scans so they do not slow the program
    gc.collect()
    gc.freeze()
    if args.trace:
        rec, metrics = run_traced(args.workload, workload, steps, args.seed)
    else:
        rec, metrics = run_untraced(args.workload, workload, steps, args.seed)
    print(f"# {args.workload} seed {args.seed}, {steps} steps: {json.dumps(workload.sizes())}")
    print(json.dumps({
        "correct": rec.wrong == 0,
        "attempted": len(rec.ops),
        "failed": rec.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

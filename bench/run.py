"""Validator benchmark: one workload in one process, metrics as one JSON line.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from ``src/``.
The run repeats whole rounds of the workload until ``S`` seconds have passed
and checks every verdict against an answer computed apart from the program.

``--trace 0`` times the program's own entry points and prints the
end-to-end metrics.  ``--trace 1`` calls the same entry points with a span
around each module's public functions, prints each layer's self time per
round, then measures heap peaks with ``tracemalloc`` after all timing is
done; the spans are written to ``bench/out/``.  See ``bench/README.md``.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import random
import resource
import shutil
import statistics
import sys
import tempfile
import tracemalloc
import warnings
from collections import Counter
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter

from hostspeed import HostSpeed

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "bench" / "out"
MIN_SETUPS = 15

LAYER_TIMES = (
    "template.render",
    "lang.parse_model",
    "lang.parse_formula",
    "ctl.print_formula",
    "model.build_graph",
    "execlog.parse_log",
    "execlog.compile",
    "checker.sat",
    "checker.holds_initially",
    "lifecycle.store_put",
    "lifecycle.ledger_append",
    "lifecycle.store_get",
    "lifecycle.ledger_load",
    "town.simulate",
)
SIZES = ("model.states", "model.edges", "model.commands", "execlog.rows")


class Tally:
    """Attempted and failed operations, latencies of the rest, wrong answers."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.latencies: list[float] = []
        self.busy = 0.0
        self.failures: Counter = Counter()
        self.problems: list[str] = []

    def record(self, op, got, seconds: float, results: dict):
        self.attempted += 1
        self.busy += seconds
        if isinstance(got, Exception):
            self.failed += 1
            fault, raises = op.fault or ("unexpected", None)
            self.failures[f"{fault}: {type(got).__name__}"] += 1
            if raises is None or not isinstance(got, raises):
                self.problems.append(f"{op.key}: raised {got!r}")
            return
        self.latencies.append(seconds)
        results[op.key] = got
        if got not in op.answers:
            self.problems.append(f"{op.key}: got {got!r}, expected one of {op.answers!r}")

    def close_round(self, rnd, done: list, tracer):
        results: dict = {}
        for op, got, took in done:
            self.record(op, got, took, results)
        if len(done) != len(rnd.ops):
            self.problems.append(f"{len(done)} verdicts for {len(rnd.ops)} operations")
        self.problems += rnd.check(tracer, results)
        rnd.close()


def run_op(op):
    start = perf_counter()
    try:
        got = op.real()
    except Exception as exc:  # counted as a failed operation, by exception type
        got = exc
    return op, got, perf_counter() - start


def play(rnd, between) -> list:
    """Make the round's verdicts, running ``between`` after each."""
    if rnd.batch:
        return rnd.batch(between)
    done = []
    for op in rnd.ops:
        done.append(run_op(op))
        between()
    return done


def quantile(values: list[float], q: float) -> float:
    """Harrell-Davis estimate of the ``q`` quantile: the order statistics
    weighted by the Beta(q(n+1), (1-q)(n+1)) density at their midpoints.
    Where a quantile falls between operations of unlike cost it moves
    smoothly, while a single order statistic jumps from one to the other."""
    xs = sorted(values)
    n = len(xs)
    a, b = q * (n + 1), (1 - q) * (n + 1)
    logs = [(a - 1) * math.log((i + 0.5) / n) + (b - 1) * math.log(1 - (i + 0.5) / n) for i in range(n)]
    top = max(logs)
    weights = [math.exp(x - top) for x in logs]
    return sum(x * w for x, w in zip(xs, weights)) / sum(weights)


def timed_setup(workload, rng, tracer):
    drawn = workload.draw(rng)
    gc.collect()  # so that set-up does not pay for the last round's garbage
    began = perf_counter()
    rnd = workload.setup(drawn, tracer)
    return rnd, perf_counter() - began


def measure(workload, rng: random.Random, seconds: float, tracer) -> tuple[Tally, dict]:
    tally = Tally()
    host = HostSpeed()
    host.sample(force=True)
    setups = []  # at nominal speed, as every time below
    start = perf_counter()
    while True:
        rnd, took = timed_setup(workload, rng, tracer)
        setups.append(host.scaled(took))
        rnd.expect()
        marks = []

        def between():
            marks.append(host.mark())
            host.sample()
            gc.collect()  # so that no verdict pays for another's garbage

        done = play(rnd, between)
        host.sample(force=True)
        done = [(op, got, took * host.scale(mark)) for (op, got, took), mark in zip(done, marks)]
        tally.close_round(rnd, done, tracer)
        if perf_counter() - start >= seconds:
            break
    while len(setups) < MIN_SETUPS:
        rnd, took = timed_setup(workload, rng, tracer)
        setups.append(host.scaled(took))
        rnd.close()

    lat = tally.latencies
    p50, p90 = quantile(lat, 0.5), quantile(lat, 0.9)
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "verdicts_per_s": (len(lat) / tally.busy, "1/s"),
        "verdict_p50_ms": (p50 * 1e3, "ms"),
        "verdict_p90_ms": (p90 * 1e3, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    speeds = [HostSpeed.NOMINAL_S / x for x in host.slices]
    print(
        f"bench: {len(host.slices)} reference slices, host speed factor "
        f"{min(speeds):.3f}-{max(speeds):.3f}; {len(setups)} set-ups; {len(lat)} verdicts; "
        f"plain median {statistics.median(lat) * 1e3:.6g} ms, "
        f"plain p90 {statistics.quantiles(lat, n=10)[8] * 1e3 if len(lat) > 1 else 0:.6g} ms",
        file=sys.stderr,
    )
    return tally, metrics


def layer_functions():
    """(owner, attribute, span name) of each module's public calls, wrapped
    where the validator and the benchmark's checks look them up."""
    from traceval import checker, ctl, execlog, lang, lifecycle, model

    return (
        (lifecycle.ContentStore, "get_text", "lifecycle.store_get"),
        (lifecycle.Ledger, "append", "lifecycle.ledger_append"),
        (lang, "parse_model", "lang.parse_model"),
        (lifecycle, "parse_model", "lang.parse_model"),
        (lang, "parse_formula", "lang.parse_formula"),
        (execlog, "parse_log", "execlog.parse_log"),
        (lifecycle, "parse_log", "execlog.parse_log"),
        (model, "build_graph", "model.build_graph"),
        (lifecycle, "build_graph", "model.build_graph"),
        (execlog, "log_property", "execlog.compile"),
        (lifecycle, "log_property", "execlog.compile"),
        (ctl, "print_formula", "ctl.print_formula"),
        (checker, "holds_initially", "checker.holds_initially"),
        (lifecycle, "holds_initially", "checker.holds_initially"),
        (checker, "sat", "checker.sat"),
    )


@contextmanager
def instrumented(tracer, observers: dict):
    """Wrap every layer function in a span for the duration of the block."""
    saved = [(owner, attr, getattr(owner, attr)) for owner, attr, _ in layer_functions()]
    try:
        for (owner, attr, name), (_, _, fn) in zip(layer_functions(), saved):
            setattr(owner, attr, tracer.wrap(name, fn, observers.get(name)))
        yield
    finally:
        for owner, attr, fn in saved:
            setattr(owner, attr, fn)


def span_cost(calls: int = 20_000) -> float:
    """Seconds one span adds to a call: a wrapped empty call's time minus
    the bare call's, the least of five tries of each."""
    from spans import Tracer

    def bare():
        return None

    wrapped = Tracer().wrap("probe", bare)
    best = {}
    for fn in (bare, wrapped) * 5:
        start = perf_counter()
        for _ in range(calls):
            fn()
        best[fn] = min(best.get(fn, math.inf), perf_counter() - start)
    return (best[wrapped] - best[bare]) / calls


def measure_traced(workload, rng: random.Random, seconds: float, tracer) -> tuple[Tally, dict]:
    tally = Tally()
    sizes = dict.fromkeys(SIZES, 0)
    rejected: list[int] = []  # holds_initially spans that found the property false
    rounds = events = layer_spans = 0

    def note(name, value):
        sizes[name] = max(sizes[name], value)

    observers = {
        "lang.parse_model": lambda i, parsed: note("model.commands", len(parsed.commands)),
        "execlog.parse_log": lambda i, log: note("execlog.rows", log.n),
        "model.build_graph": lambda i, graph: (
            note("model.states", graph.state_count), note("model.edges", graph.edge_count)
        ),
        "checker.holds_initially": lambda i, report: report.holds or rejected.append(i),
    }
    start = perf_counter()
    while True:
        drawn = workload.draw(rng)
        with tracer.span("setup"):
            rnd = workload.setup(drawn, tracer)
        rnd.expect()
        first = len(tracer.spans)
        with instrumented(tracer, observers), tracer.span("verdicts"):
            done = play(rnd, lambda: None)
        layer_spans += len(tracer.spans) - first - 1
        tally.close_round(rnd, done, tracer)
        events += rnd.events
        rounds += 1
        if perf_counter() - start >= seconds:
            break
    model_mb, checker_mb = heap_peaks(*rnd.probe)

    self_times = tracer.self_times()
    metrics = {f"{name}_s": (self_times.get(name, 0.0) / rounds, "s") for name in LAYER_TIMES}
    metrics.update({name: (value, "count") for name, value in sizes.items()})
    # share of the rejected checks' time spent outside sat: the diagnostic
    rejected_set = set(rejected)
    checking = sum(tracer.spans[i][2] - tracer.spans[i][1] for i in rejected)
    deciding = sum(
        end - begin for name, begin, end, parent in tracer.spans
        if name == "checker.sat" and parent in rejected_set
    )
    metrics["checker.diagnostic_share"] = ((checking - deciding) / checking if checking else 0.0, "share")
    metrics["lifecycle.events"] = (events / rounds, "count")
    metrics["model.heap_peak_mb"] = (model_mb, "MB")
    metrics["checker.heap_peak_mb"] = (checker_mb, "MB")
    metrics["trace.overhead_ms"] = (span_cost() * layer_spans / tally.attempted * 1e3, "ms")
    return tally, metrics


def heap_peaks(model_text: str, log_text: str, mode: str) -> tuple[float, float]:
    """Python-heap high-water marks of ``build_graph`` and ``holds_initially``
    on one probe verdict, in MB above what was allocated before each call."""
    from traceval import build_graph, holds_initially, log_property, parse_log, parse_model

    model = parse_model(model_text)
    prop = log_property(parse_log(log_text), mode)
    tracemalloc.start()
    try:
        graph, model_mb = _heap_peak(build_graph, model)
        _, checker_mb = _heap_peak(holds_initially, graph, prop)
    finally:
        tracemalloc.stop()
    return model_mb, checker_mb


def _heap_peak(fn, *args):
    tracemalloc.reset_peak()
    before = tracemalloc.get_traced_memory()[0]
    result = fn(*args)
    return result, (tracemalloc.get_traced_memory()[1] - before) / 2**20


def use_sources() -> bool:
    """Import the package from this checkout's ``src/``; False when it is absent."""
    src = ROOT / "src"
    if not (src / "traceval" / "__init__.py").is_file():
        print(f"bench: no package sources at {src}/traceval", file=sys.stderr)
        return False
    sys.path.insert(0, str(src))
    # faithful properties of logs whose last rows differ, and wrong turns off the map
    from traceval.execlog import UnsatisfiableLogWarning
    from traceval.town import SimulationWarning

    warnings.simplefilter("ignore", UnsatisfiableLogWarning)
    warnings.simplefilter("ignore", SimulationWarning)
    return True


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not use_sources():
        return 2
    import workloads
    from spans import NoTracer, Tracer

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(workloads.WORKLOADS)}")

    OUT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    try:
        workload = workloads.make(args.workload, ROOT, work)
        rng = random.Random(args.seed)
        if args.trace:
            tracer = Tracer()
            tally, metrics = measure_traced(workload, rng, args.seconds, tracer)
            tracer.dump(OUT / f"spans-{args.workload}-{args.seed}.json")
        else:
            tally, metrics = measure(workload, rng, args.seconds, NoTracer())
    finally:
        shutil.rmtree(work, ignore_errors=True)

    print(
        f"bench: {args.workload} seed {args.seed}: {tally.attempted} attempted, "
        f"{tally.failed} failed {dict(tally.failures)}, {len(tally.problems)} wrong",
        file=sys.stderr,
    )
    for problem in tally.problems[:20]:
        print(f"bench: wrong: {problem}", file=sys.stderr)
    result = {
        "correct": not tally.problems,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

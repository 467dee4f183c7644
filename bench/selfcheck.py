"""Fast self-check of the benchmark: run it at tiny sizes and assert correctness.

    python3 bench/selfcheck.py

Runs one round of every workload at a tiny size, timed and traced, and
requires correct verdicts and no failed operation (tiny inputs stay far
from the recursion faults).  It also checks the reference walker against
``adjudicate`` on the bundled town in both bases, and the town-level state
count against ``build_graph`` on random towns.  Exits 1 on the first
disagreement.
"""

from __future__ import annotations

import random
import shutil
import sys
import tempfile
from pathlib import Path

import run


def check(ok: bool, what: str):
    print(f"[{'ok' if ok else 'FAIL'}] {what}")
    if not ok:
        sys.exit(1)


def main() -> int:
    if not run.use_sources():
        return 2
    import workloads
    from reference import Walker
    from spans import NoTracer, Tracer
    from traceval import adjudicate, build_graph, build_bindings, format_log, parse_model, render, simulate

    run.OUT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="selfcheck-", dir=run.OUT))
    try:
        for name in workloads.WORKLOADS:
            for measure, tracer in ((run.measure, NoTracer()), (run.measure_traced, Tracer())):
                workload = workloads.make(name, run.ROOT, work, tiny=True)
                tally, metrics = measure(workload, random.Random(7), 0, tracer)
                check(
                    not tally.problems and tally.failed == 0 and tally.attempted > 0,
                    f"{name} {measure.__name__}: {tally.attempted} verdicts {tally.problems[:3]}",
                )

        settle = workloads.make("settle-town5", run.ROOT, work, tiny=True)
        disagree = []
        for reduce in (True, False):
            parts = build_bindings(settle.town, settle.objective, reduce=reduce)
            model_text = render(parts.template, parts.bindings, parts.settings)
            walker = Walker(parse_model(model_text))
            for spec in settle.specs:
                log_text = format_log(simulate(settle.town, settle.objective, fault=spec))
                for mode in ("strong", "weak"):
                    for base in ("faithful", "corrected"):
                        got = adjudicate(model_text, log_text, mode, base)[0] == "Confirmed"
                        if got != walker.admits(log_text, mode, base):
                            disagree.append((reduce, spec, mode, base))
        check(not disagree, f"walker agrees with adjudicate on {len(settle.specs)} town logs {disagree[:3]}")

        rng = random.Random(11)
        counts = []
        for _ in range(5):
            town, objective = workloads.random_town(rng, 6, 6, 4, range(1, 10_000))
            parts = build_bindings(town, objective, reduce=False)
            graph = build_graph(parse_model(render(parts.template, parts.bindings, parts.settings)))
            counts.append((workloads.unreduced_state_count(town, objective), graph.state_count))
        check(all(a == b for a, b in counts), f"town-level state counts match build_graph {counts}")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

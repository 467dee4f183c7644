"""The benchmark's workloads: inputs made from a seed, the verdicts to time, their checks.

A workload is run in rounds.  ``draw`` picks a round's inputs from the
seed; ``setup`` makes their texts with the program, stores them and submits
them (this is what ``setup_s`` times); the round's ops are its verdicts;
``expect`` fills in the answers computed apart from the program; ``check``
verifies what only the whole round shows, such as the reloaded
ledger.  Every round of a workload attempts the same operations, so the
share of failed operations is the same in every run.
"""

from __future__ import annotations

import json
import random
import shutil
import tempfile
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from time import perf_counter
from typing import Any, Callable

from traceval import checker, ctl, execlog, lang, model
from traceval.execlog import MODES, ExecutionLog, format_log
from traceval.lang import parse_model
from traceval.lifecycle import (
    KIND_VERDICT,
    REASON_MALFORMED_MODEL,
    REASON_PROPERTY_FAILED,
    STATUS_CONFIRMED,
    STATUS_REJECTED,
    ContentStore,
    Ledger,
    adjudicate,
    create_liability,
    run_validator,
    submit_result,
    validate,
)
from traceval.template import Settings, render
from traceval.town import (
    ACTIONS,
    DIR_VECS,
    LOG_COLUMNS,
    Objective,
    ObjectiveStep,
    TownMap,
    TownNode,
    build_bindings,
    load_objective,
    load_town,
    simulate,
    turn,
)

from reference import Walker

CONFIRMED = (STATUS_CONFIRMED, None)
REJECTED = (STATUS_REJECTED, REASON_PROPERTY_FAILED)
PROMISOR = "0x0000000000000001"
PROMISEE = "0x0000000000000002"


@dataclass
class Op:
    """One verdict: the program's entry point, the answers that count as
    correct and, for an operation a known fault fails today, the fault's
    name and the exception it raises."""

    key: tuple
    real: Callable[[], Any]
    answers: tuple = ()
    fault: tuple[str, type[Exception]] | None = None


@dataclass
class Round:
    ops: list[Op]
    probe: tuple  # (model text, log text, mode) for the heap measurement
    # makes all the round's verdicts in one call, running ``between`` after each
    batch: Callable[[Callable[[], None]], list[tuple[Op, Any, float]]] | None = None
    expect: Callable[[], None] = lambda: None
    check: Callable[[Any, dict], list[str]] = lambda tracer, results: []
    close: Callable[[], None] = lambda: None
    events: int = 0  # ledger events written, counted by ``check``


# ---------------------------------------------------------------------------
# Entry points
# ---------------------------------------------------------------------------

# These look the package's functions up on their modules at call time, so
# that the traced run's spans around those functions see these calls too.


def check_formula(model_text: str, formula_text: str) -> tuple[bool, int, int]:
    """What ``traceval check`` computes: the verdict and the graph's size."""
    parsed = lang.parse_model(model_text)
    formula = lang.parse_formula(formula_text)
    graph = model.build_graph(parsed)
    return checker.holds_initially(graph, formula).holds, graph.state_count, graph.edge_count


def round_trip(model_text: str, log_text: str, mode: str) -> bool:
    """``gen-property`` then ``check``: the property passes through its text."""
    text = ctl.print_formula(execlog.log_property(execlog.parse_log(log_text), mode))
    return check_formula(model_text, text)[0]


def adjudicate_op(key, model_text, log_text, mode, answers, fault=None, base="faithful") -> Op:
    return Op(key, partial(adjudicate, model_text, log_text, mode, base), answers, fault)


def validate_op(key, ledger, store, lid, mode) -> Op:
    return Op(key, partial(validate, ledger, store, lid, mode))


class StampedLedger(Ledger):
    """Ledger that times each verdict ``run_validator`` makes in one call.

    A verdict's interval ends when its event is appended; ``between`` then
    runs outside any interval, and the next interval starts after it.
    """

    def __init__(self, path):
        self.intervals: list[float] = []
        self._between: Callable[[], None] | None = None
        self._start = 0.0
        super().__init__(path)

    def time_verdicts(self, between: Callable[[], None]):
        self.intervals, self._between, self._start = [], between, perf_counter()

    def append(self, kind: str, **payload) -> dict:
        event = super().append(kind, **payload)
        if kind == KIND_VERDICT and self._between is not None:
            self.intervals.append(perf_counter() - self._start)
            self._between()
            self._start = perf_counter()
        return event


def check_ledger(t, path) -> tuple[list[str], int]:
    """Reload a ledger; every liability must hold exactly one verdict, and a
    rejection of these well-formed inputs can only be a failed property."""
    ledger = t.call("lifecycle.ledger_load", Ledger, path)
    problems = []
    verdicts = [e for e in ledger.events if e["kind"] == KIND_VERDICT]
    if sorted(e["id"] for e in verdicts) != sorted(ledger.liabilities):
        problems.append(f"{path.name}: not exactly one verdict per liability")
    for e in verdicts:
        if e["verdict"] == STATUS_REJECTED and e.get("reason") != REASON_PROPERTY_FAILED:
            problems.append(f"{path.name}: liability {e['id']} rejected for {e.get('reason')}")
    return problems, len(ledger.events)


def _workspace(parent: Path) -> Path:
    return Path(tempfile.mkdtemp(dir=parent))


# ---------------------------------------------------------------------------
# settle-town5
# ---------------------------------------------------------------------------


def fault_corpus(town, objective) -> list[str | None]:
    """The honest run (None), every in-domain single-cell forge of rows
    2..n-1, every wrong turn and every skip of the bundled town."""
    honest = simulate(town, objective)
    domains = {
        "x": range(town.width),
        "y": range(town.height),
        "d": range(4),
        "k": range(len(objective.steps) + 1),
    }
    specs: list[str | None] = [None]
    for row in range(2, honest.n):
        for col, var in enumerate(LOG_COLUMNS):
            specs += [
                f"forge:{row},{var},{value}"
                for value in domains[var]
                if value != honest.rows[row - 1][col]
            ]
    specs += [f"wrong-turn:{j}" for j in range(1, len(objective.steps) + 1)]
    specs += [f"skip:{i}" for i in range(2, honest.n - 1)]
    return specs


# Model kinds validated in each mode.  The reduced model's verdicts cost less
# than half of the unreduced one's; with both kinds in both modes the median
# verdict would fall in the gap between the two groups, where it jumps with
# the slowest reduced and the fastest unreduced verdict.  Two thirds reduced
# puts the median inside the reduced group and the 90th percentile inside
# the unreduced one.
SETTLE_KINDS = {"strong": ("reduced", "unreduced"), "weak": ("reduced",)}


class SettleTown5:
    """Two stored models, many liabilities, validated by run_validator."""

    def __init__(self, root: Path, work: Path, forge_stride: int = 1):
        self.work = work
        self.objective_text = (root / "samples" / "objective.json").read_text()
        self.town = load_town((root / "samples" / "town5x5.json").read_text())
        self.objective = load_objective(self.objective_text)
        self.specs = [
            spec
            for i, spec in enumerate(fault_corpus(self.town, self.objective))
            if not (spec or "").startswith("forge:") or i % forge_stride == 0
        ]
        walkers = {}
        for kind, reduce in (("reduced", True), ("unreduced", False)):
            parts = build_bindings(self.town, self.objective, reduce=reduce)
            walkers[kind] = Walker(parse_model(render(parts.template, parts.bindings, parts.settings)))
        logs = {spec: format_log(simulate(self.town, self.objective, fault=spec)) for spec in self.specs}
        self.expected = {
            (mode, kind, spec): STATUS_CONFIRMED if walkers[kind].admits(logs[spec], mode) else STATUS_REJECTED
            for mode, kinds in SETTLE_KINDS.items()
            for kind in kinds
            for spec in self.specs
        }

    def draw(self, rng: random.Random) -> dict:
        """The order of submission in each mode."""
        order = {}
        for mode in MODES:
            order[mode] = [(kind, spec) for kind in SETTLE_KINDS[mode] for spec in self.specs]
            rng.shuffle(order[mode])
        return order

    def setup(self, order: dict, t) -> Round:
        ws = _workspace(self.work)
        logs = {
            spec: format_log(t.call("town.simulate", simulate, self.town, self.objective, fault=spec))
            for spec in self.specs
        }
        models = {}
        for kind, reduce in (("reduced", True), ("unreduced", False)):
            parts = build_bindings(self.town, self.objective, reduce=reduce)
            models[kind] = t.call("template.render", render, parts.template, parts.bindings, parts.settings)
        store = ContentStore(ws / "store")
        put = partial(t.call, "lifecycle.store_put", store.put_text)
        model_hash = {kind: put(text) for kind, text in models.items()}
        objective_hash = put(self.objective_text)
        log_hash = {spec: put(text) for spec, text in logs.items()}

        ledgers = {}
        ops: list[Op] = []
        by_lid: dict[str, dict[int, Op]] = {}
        for mode in MODES:
            ledger = ledgers[mode] = StampedLedger(ws / f"{mode}.jsonl")
            by_lid[mode] = {}
            for kind, spec in order[mode]:
                lid = t.call(
                    "lifecycle.ledger_append", create_liability,
                    ledger, store, PROMISOR, PROMISEE, model_hash[kind], objective_hash,
                )
                t.call("lifecycle.ledger_append", submit_result, ledger, store, lid, log_hash[spec])
                op = validate_op((mode, kind, spec), ledger, store, lid, mode)
                op.answers = (self.expected[op.key],)
                ops.append(op)
                by_lid[mode][lid] = op

        def batch(between):
            done = []
            for mode, ledger in ledgers.items():
                ledger.time_verdicts(between)
                verdicts = run_validator(ledger, store, mode)
                for (lid, verdict), took in zip(verdicts, ledger.intervals):
                    done.append((by_lid[mode][lid], verdict, took))
            return done

        rnd = Round(ops, (models["unreduced"], logs[None], "strong"), batch=batch)

        def check(t, results):
            problems = []
            rnd.events = 0
            for ledger in ledgers.values():
                found, events = check_ledger(t, ledger.path)
                problems += found
                rnd.events += events
            problems += town_properties(results, self.specs)
            return problems

        rnd.check = check
        rnd.close = partial(shutil.rmtree, ws, ignore_errors=True)
        return rnd


def town_properties(results: dict, specs) -> list[str]:
    """Properties the verdicts on the bundled town's logs must have, where
    the round holds the verdicts they compare."""
    problems = []
    for spec in specs:
        strong = {kind: results.get(("strong", kind, spec)) for kind in SETTLE_KINDS["strong"]}
        weak = results.get(("weak", "reduced", spec))
        if spec is None and {weak, *strong.values()} != {STATUS_CONFIRMED}:
            problems.append("honest log not confirmed in every mode")
        if spec and spec.startswith("skip:") and (weak, strong["reduced"]) != (STATUS_CONFIRMED, STATUS_REJECTED):
            problems.append(f"{spec}: skip not weak-confirmed and strong-rejected")
        if strong["reduced"] == STATUS_CONFIRMED and weak != STATUS_CONFIRMED:
            problems.append(f"{spec}: strong confirmed but weak not")
        if strong["reduced"] != strong["unreduced"]:
            problems.append(f"{spec}: reduced and unreduced models disagree")
    return problems


# ---------------------------------------------------------------------------
# towns-distinct
# ---------------------------------------------------------------------------


def full_grid_town(side: int, tags: dict, start: tuple[int, int, int]) -> TownMap:
    """A side x side town with every pair of adjacent cells joined both ways."""
    nodes = tuple(TownNode(x, y, tags.get((x, y), 0)) for x in range(side) for y in range(side))
    edges = set()
    for x in range(side):
        for y in range(side):
            for nx, ny in ((x + 1, y), (x, y + 1)):
                if nx < side and ny < side:
                    edges.add(((x, y), (nx, ny)))
                    edges.add(((nx, ny), (x, y)))
    return TownMap(side, side, nodes, frozenset(edges), start)


def _ahead(x: int, y: int, d: int) -> tuple[int, int]:
    dx, dy = DIR_VECS[d]
    return x + dx, y + dy


def random_objective(rng: random.Random, town: TownMap, stops: int) -> Objective | None:
    """An objective recorded from a random legal drive, so an honest run exists."""
    steps = []
    x, y, d = town.start
    for _ in range(8 * town.width * town.height):
        tag = town.node_at(x, y).tag
        if tag:
            if len(steps) == stops:
                break
            actions = [a for a in ACTIONS if town.has_edge((x, y), _ahead(x, y, turn(d, a)))]
            action = rng.choice(actions)
            steps.append(ObjectiveStep(tag, action))
            d = turn(d, action)
        elif not town.has_edge((x, y), _ahead(x, y, d)):
            break
        x, y = _ahead(x, y, d)
    return Objective(tuple(steps)) if len(steps) == stops else None


def unreduced_state_count(town: TownMap, objective: Objective) -> int:
    """Reachable states of the unreduced town model, counted on the town itself.

    At a tagged node an action bound to objective steps fires only at those
    steps; every other action fires at any step before the end.  An untagged
    node moves straight on.  A state with nowhere to go holds.
    """
    steps = objective.steps
    bound: dict[tuple[int, str], set[int]] = {}
    for k, step in enumerate(steps):
        bound.setdefault((step.tag, step.action), set()).add(k)
    start = (*town.start, 0)
    seen = {start}
    todo = [start]
    while todo:
        x, y, d, k = todo.pop()
        if k == len(steps):
            continue
        tag = town.node_at(x, y).tag
        moves = []
        if tag:
            for action in ACTIONS:
                d1 = turn(d, action)
                ks = bound.get((tag, action))
                if town.has_edge((x, y), _ahead(x, y, d1)) and (ks is None or k in ks):
                    moves.append((*_ahead(x, y, d1), d1, k + 1))
        elif town.has_edge((x, y), _ahead(x, y, d)):
            moves.append((*_ahead(x, y, d), d, k))
        for state in moves:
            if state not in seen:
                seen.add(state)
                todo.append(state)
    return len(seen)


def random_town(rng: random.Random, side: int, tags: int, stops: int, states: range):
    """A random full-grid town and objective whose unreduced model has a
    state count in ``states``; drawing until it does keeps the verdict cost
    of one town close to the next."""
    cells = [(x, y) for x in range(side) for y in range(side)]
    while True:
        rng.shuffle(cells)
        start = (*rng.choice(cells), rng.randrange(4))
        town = full_grid_town(side, {cell: i + 1 for i, cell in enumerate(cells[:tags])}, start)
        objective = random_objective(rng, town, stops)
        if objective is not None and unreduced_state_count(town, objective) in states:
            return town, objective


def objective_json(objective: Objective) -> str:
    return json.dumps({"sequence": [{"tag": s.tag, "action": s.action} for s in objective.steps]})


class TownsDistinct:
    """A new random town every round, and one verdict on its model.

    One verdict per model, so a cache of built graphs keyed by model never
    hits.  Rounds cycle honest/strong, honest/weak, wrong-turn/strong,
    wrong-turn/weak; the wrong turn is drawn from the seed.
    """

    def __init__(self, work: Path, side=12, tags=20, stops=6, states=range(110, 121)):
        self.shape = (side, tags, stops, states)
        self.stops = stops
        ws = _workspace(work)
        self.store = ContentStore(ws / "store")
        self.ledger = Ledger(ws / "ledger.jsonl")
        self.rounds = self.events = 0

    def draw(self, rng: random.Random) -> tuple:
        """The town, its objective, the mode and the fault: drawing towns
        until one is in range costs a varying time, so it is not set-up."""
        town, objective = random_town(rng, *self.shape)
        mode = MODES[self.rounds % 2]
        fault = f"wrong-turn:{rng.randint(1, self.stops)}" if self.rounds // 2 % 2 else None
        self.rounds += 1
        return town, objective, mode, fault

    def setup(self, drawn: tuple, t) -> Round:
        town, objective, mode, fault = drawn
        parts = build_bindings(town, objective, reduce=False)
        model_text = t.call("template.render", render, parts.template, parts.bindings, parts.settings)
        log_text = format_log(t.call("town.simulate", simulate, town, objective, fault=fault))
        put = partial(t.call, "lifecycle.store_put", self.store.put_text)
        model_hash, objective_hash, log_hash = put(model_text), put(objective_json(objective)), put(log_text)
        lid = t.call(
            "lifecycle.ledger_append", create_liability,
            self.ledger, self.store, PROMISOR, PROMISEE, model_hash, objective_hash,
        )
        t.call("lifecycle.ledger_append", submit_result, self.ledger, self.store, lid, log_hash)
        op = validate_op((mode, "unreduced", fault), self.ledger, self.store, lid, mode)
        rnd = Round([op], (model_text, log_text, mode))
        walker = None

        def expect():
            nonlocal walker
            walker = Walker(parse_model(model_text))
            op.answers = (STATUS_CONFIRMED if walker.admits(log_text, mode) else STATUS_REJECTED,)

        def check(t, results):
            problems, events = check_ledger(t, self.ledger.path)
            rnd.events, self.events = events - self.events, events
            verdict = results.get(op.key)
            if fault is None and verdict != STATUS_CONFIRMED:
                problems.append(f"honest log {verdict} in {mode} mode")
            if mode == "strong" and verdict == STATUS_CONFIRMED and not walker.admits(log_text, "weak"):
                problems.append("strong confirmed but the log is not weakly admitted")
            return problems

        rnd.expect, rnd.check = expect, check
        return rnd


# ---------------------------------------------------------------------------
# grid-counter
# ---------------------------------------------------------------------------

GRID_TEMPLATE = (
    "// grid counter: inc moves right, up moves up\n"
    "var x : 0..@top@ init 0;\n"
    "var y : 0..@top@ init 0;\n"
    "[inc] x<@top@ -> x'=x+1;\n"
    "[up] y<@top@ -> y'=y+1;\n"
)


class GridCounter:
    """Checks on one large graph: the counter ``x,y : 0..n-1`` (n*n states)."""

    def __init__(self, n: int = 100):
        self.n = n
        top = n - 1
        stair = [(0, 0)]
        for i in range(2 * top):
            x, y = stair[-1]
            stair.append((x + 1, y) if i % 2 == 0 else (x, y + 1))
        self.stair = ExecutionLog(("x", "y"), tuple(stair + stair[-1:]))  # 2n rows
        self.diagonal = ExecutionLog(("x", "y"), tuple([(i, i) for i in range(n)] + [(top, top)]))

    def draw(self, rng: random.Random) -> list[int]:
        """The order of the round's seven operations."""
        return rng.sample(range(7), 7)

    def setup(self, order: list[int], t) -> Round:
        n, top = self.n, self.n - 1
        model_text = t.call("template.render", render, GRID_TEMPLATE, None, Settings({"top": top}))
        stair_log, diagonal_log = format_log(self.stair), format_log(self.diagonal)
        size = (n * n, 2 * n * (n - 1) + 1)
        ops = [
            adjudicate_op(("stair", "strong"), model_text, stair_log, "strong", (CONFIRMED,)),
            adjudicate_op(("stair", "weak"), model_text, stair_log, "weak", (CONFIRMED,)),
            adjudicate_op(("diagonal", "strong"), model_text, diagonal_log, "strong", (REJECTED,)),
            adjudicate_op(("diagonal", "weak"), model_text, diagonal_log, "weak", (CONFIRMED,)),
        ]
        # seven operations, so that the median verdict is one operation's,
        # not the midpoint between two of different cost
        checks = ((f"AF(x=={top})", True), (f"EG(x<{top})", False), (f"EF(x=={top} & y=={top})", True))
        for formula, holds in checks:
            ops.append(Op((formula,), partial(check_formula, model_text, formula), ((holds, *size),)))
        return Round([ops[i] for i in order], (model_text, stair_log, "strong"))


# ---------------------------------------------------------------------------
# long-input
# ---------------------------------------------------------------------------

# x waits at 0 as long as it likes, then moves to 1 and stays there.
WAIT_THEN_STAY = "var x : 0..1 init 0;\n[] x==0 -> x'=1;\n[] x==0 -> skip;\n"
TOGGLE = "var x : 0..1 init 0;\n[] x==0 -> x'=1;\n[] x==1 -> x'=0;\n"
SHORT_LOG = "x\n0\n1\n1\n"


def hostile_models(depth: int, width: int) -> dict[str, str]:
    """Model texts equal to ``[] x==0 -> x'=1`` but deeply nested or very long."""
    head = "var x : 0..1 init 0;\n[] "
    return {
        "nested-parens": head + "(" * depth + "x==0" + ")" * depth + " -> x'=1;\n",
        "long-sum": head + "x==0 -> x'=" + "0+" * (width - 1) + "1;\n",
        "many-nots": head + "!" * (2 * (width // 2)) + "(x==0) -> x'=1;\n",
    }


def one_column_log(values) -> ExecutionLog:
    return ExecutionLog(("x",), tuple((v,) for v in values))


class LongInput:
    """Logs of thousands of rows on two-state models, and deep model texts.

    Two faults make operations fail on every round today: the text round
    trip recurses once per log row in ``parse_formula``, and ``adjudicate``
    raises ``RecursionError`` on the hostile model texts.  Their inputs do
    not depend on the seed.
    """

    def __init__(self, rows: int = 4000, depth: int = 5000, width: int = 20000):
        self.rows = rows
        self.hostile = hostile_models(depth, width)
        half = rows // 2
        self.round_trip = one_column_log([0] * half + [1] * (rows - half))
        self.rejected = one_column_log(i % 2 for i in range(rows))

    def draw(self, rng: random.Random) -> tuple[int, list[int]]:
        """Where the confirmed log moves from 0 to 1, and the order of the
        round's ten operations."""
        return rng.randint(1, self.rows - 2), rng.sample(range(10), 10)

    def setup(self, drawn: tuple[int, list[int]], t) -> Round:
        zeros, order = drawn
        confirmed_log = format_log(one_column_log([0] * zeros + [1] * (self.rows - zeros)))
        rejected_log, round_trip_log = format_log(self.rejected), format_log(self.round_trip)
        # five operations that succeed, so that the median verdict is one
        # operation's, not the midpoint between confirmed and rejected logs
        ops = [adjudicate_op(
            ("confirmed", "strong", "corrected"), WAIT_THEN_STAY, confirmed_log, "strong",
            (CONFIRMED,), base="corrected",
        )]
        for mode in MODES:
            ops += [
                adjudicate_op(("confirmed", mode), WAIT_THEN_STAY, confirmed_log, mode, (CONFIRMED,)),
                # the last row of an alternating log is never absorbing
                adjudicate_op(("rejected", mode), TOGGLE, rejected_log, mode, (REJECTED,)),
                Op(
                    ("round-trip", mode),
                    partial(round_trip, WAIT_THEN_STAY, round_trip_log, mode),
                    (True,),
                    ("round-trip", RecursionError),
                ),
            ]
        for name, text in self.hostile.items():
            ops.append(adjudicate_op(
                (name,), text, SHORT_LOG, "strong",
                (CONFIRMED, (STATUS_REJECTED, REASON_MALFORMED_MODEL)), ("hostile-input", RecursionError),
            ))
        return Round([ops[i] for i in order], (TOGGLE, rejected_log, "strong"))


WORKLOADS = ("settle-town5", "towns-distinct", "grid-counter", "long-input")


def make(name: str, root: Path, work: Path, tiny: bool = False):
    """The named workload at its benchmark size, or at a tiny size for the self-check."""
    if name == "settle-town5":
        return SettleTown5(root, work, forge_stride=15 if tiny else 1)
    if name == "towns-distinct":
        if tiny:
            return TownsDistinct(work, side=5, tags=4, stops=3, states=range(1, 10_000))
        return TownsDistinct(work)
    if name == "grid-counter":
        return GridCounter(6 if tiny else 100)
    if name == "long-input":
        return LongInput(40, 20, 40) if tiny else LongInput()
    raise ValueError(f"unknown workload {name!r}")

"""Seeded random corpora: graphs, formulas, towns and town logs for the
big sweeps, and a hypothesis strategy for guarded-command models."""

from __future__ import annotations

import random
import warnings

from hypothesis import strategies as st

from conftest import SAMPLES
from traceval import ctl
from traceval.execlog import ExecutionLog
from traceval.expr import BinOp, BoolLit, IntLit, Name, NotOp
from traceval.model import GuardedCommand, StateGraph, SystemModel, VarDecl
from traceval.town import (
    ACTIONS,
    DIR_VECS,
    LOG_COLUMNS,
    Objective,
    ObjectiveStep,
    TownMap,
    TownNode,
    load_objective,
    load_town,
    simulate,
    town_model_text,
    turn,
)

GRAPH_VARS = ("x", "y")
_CMP = ("==", "!=", "<", "<=", ">", ">=")


def random_graph(
    rng: random.Random, max_states: int = 64, max_degree: int = 4, values: int = 8,
    distinct: bool = False,
) -> StateGraph:
    """Random total graph over ``GRAPH_VARS``, each taking ``values`` values;
    distinct states often share a valuation, unless ``distinct``, as in the
    graphs ``build_graph`` builds."""
    n = rng.randint(1, max_states)
    if distinct:
        pool = [(x, y) for x in range(values) for y in range(values)]
        states = tuple(rng.sample(pool, min(n, len(pool))))
        n = len(states)
    else:
        states = tuple((rng.randint(0, values - 1), rng.randint(0, values - 1)) for _ in range(n))
    succ = tuple(
        frozenset(rng.randrange(n) for _ in range(rng.randint(1, max_degree)))
        for _ in range(n)
    )
    initial = frozenset({rng.randrange(n)})
    return StateGraph(GRAPH_VARS, states, initial, succ)


def successor_lists(graph: StateGraph) -> list[list[int]]:
    """Each state's successors, ascending, read off the graph's one
    relation, its predecessor rows."""
    rows: list[list[int]] = [[] for _ in range(graph.state_count)]
    for t in range(graph.state_count):
        for s in graph.predecessors(t):
            rows[s].append(t)
    return rows


def random_formula(rng: random.Random, depth: int) -> ctl.CtlFormula:
    if depth <= 0 or rng.random() < 0.3:
        roll = rng.random()
        if roll < 0.05:
            return ctl.TrueF()
        if roll < 0.10:
            return ctl.FalseF()
        return ctl.Atom(rng.choice(GRAPH_VARS), rng.choice(_CMP), rng.randint(-1, 8))
    kind = rng.randrange(9)
    if kind == 0:
        return ctl.Not(random_formula(rng, depth - 1))
    if kind == 1:
        return ctl.And(random_formula(rng, depth - 1), random_formula(rng, depth - 1))
    if kind == 2:
        return ctl.Or(random_formula(rng, depth - 1), random_formula(rng, depth - 1))
    op = (ctl.EX, ctl.EF, ctl.EG, ctl.AX, ctl.AF, ctl.AG)[kind - 3]
    return op(random_formula(rng, depth - 1))


def full_grid_town(
    width: int,
    height: int,
    tags: dict[tuple[int, int], int],
    start: tuple[int, int, int],
) -> TownMap:
    """Grid with every adjacent pair connected in both directions."""
    nodes = tuple(
        TownNode(x, y, tags.get((x, y), 0)) for x in range(width) for y in range(height)
    )
    edges = set()
    for x in range(width):
        for y in range(height):
            for dx, dy in ((1, 0), (0, 1)):
                nx, ny = x + dx, y + dy
                if nx < width and ny < height:
                    edges.add(((x, y), (nx, ny)))
                    edges.add(((nx, ny), (x, y)))
    return TownMap(width, height, nodes, frozenset(edges), start)


def random_town_and_objective(
    rng: random.Random, max_side: int = 5, max_stops: int = 8
) -> tuple[TownMap, Objective]:
    """A random full-grid town plus an objective recorded from a random
    legal walk, so an honest run always exists."""
    while True:
        width = rng.randint(2, max_side)
        height = rng.randint(2, max_side)
        cells = [(x, y) for x in range(width) for y in range(height)]
        rng.shuffle(cells)
        tag_count = rng.randint(1, min(6, len(cells)))
        tags = {cells[i]: i + 1 for i in range(tag_count)}
        start_cell = rng.choice(cells)
        start = (start_cell[0], start_cell[1], rng.randrange(4))
        town = full_grid_town(width, height, tags, start)

        steps: list[ObjectiveStep] = []
        x, y, d = start
        for _ in range(200):
            node = town.node_at(x, y)
            if node.tag > 0:
                if len(steps) >= max_stops:
                    break
                choices = [
                    a
                    for a in ACTIONS
                    if town.has_edge((x, y), _neighbor(x, y, turn(d, a)))
                ]
                if not choices:
                    break
                action = rng.choice(choices)
                steps.append(ObjectiveStep(node.tag, action))
                d = turn(d, action)
                dx, dy = DIR_VECS[d]
                x, y = x + dx, y + dy
            else:
                dx, dy = DIR_VECS[d]
                if not town.has_edge((x, y), (x + dx, y + dy)):
                    break
                x, y = x + dx, y + dy
        if steps:
            return town, Objective(tuple(steps))


def _neighbor(x: int, y: int, d: int) -> tuple[int, int]:
    dx, dy = DIR_VECS[d]
    return (x + dx, y + dy)


def random_town_logs(seed: int = 240817, count: int = 100):
    """Criterion 4's corpus: ``(model text, log)`` for ``count`` random
    towns, each log the honest run, or in about 3 of 10 towns the honest
    run with one interior cell raised by one."""
    rng = random.Random(seed)
    for _ in range(count):
        town, objective = random_town_and_objective(rng)
        model_text = town_model_text(town, objective)
        log = simulate(town, objective)
        if rng.random() < 0.3 and log.n > 3:
            row = rng.randrange(2, log.n)
            col = rng.randrange(4)
            mutated = [list(r) for r in log.rows]
            mutated[row - 1][col] += 1
            log = ExecutionLog(log.variables, tuple(tuple(r) for r in mutated))
        yield model_text, log


def town_texts(seed: int, count: int, side: int = 12, tags: int = 20, stops: int = 6) -> list[str]:
    """Unreduced model texts of ``count`` seeded ``side`` x ``side`` full-grid
    towns with ``tags`` tagged cells and ``stops``-step objectives: at the
    defaults, the size of the validator benchmark's towns-distinct models.
    The objectives are drawn at random, not recorded from a drive, so an
    honest run need not exist; use the texts for parsing only."""
    rng = random.Random(seed)
    cells = [(x, y) for x in range(side) for y in range(side)]
    texts = []
    for _ in range(count):
        rng.shuffle(cells)
        start = (*cells[0], rng.randrange(4))
        town = full_grid_town(side, side, {cell: i + 1 for i, cell in enumerate(cells[:tags])}, start)
        objective = Objective(tuple(
            ObjectiveStep(rng.randint(1, tags), rng.choice(ACTIONS)) for _ in range(stops)
        ))
        texts.append(town_model_text(town, objective, reduce=False))
    return texts


def bundled_town():
    """The sample 5x5 town and its four-stop objective."""
    town = load_town((SAMPLES / "town5x5.json").read_text())
    objective = load_objective((SAMPLES / "objective.json").read_text())
    return town, objective


def fault_logs(town, objective):
    """The criterion 5/6 corpus: honest log, all in-domain single-cell
    forges over rows 2..n-1, every wrong-turn position, every skip."""
    honest = simulate(town, objective)
    domains = {
        "x": range(town.width),
        "y": range(town.height),
        "d": range(4),
        "k": range(len(objective.steps) + 1),
    }
    forges = []
    for row in range(2, honest.n):
        for col, var in enumerate(LOG_COLUMNS):
            for value in domains[var]:
                if value == honest.rows[row - 1][col]:
                    continue
                forges.append((f"forge:{row},{var},{value}",
                               simulate(town, objective, fault=f"forge:{row},{var},{value}")))
    wrong_turns = []
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # a wrong turn may point off the map
        for j in range(1, len(objective.steps) + 1):
            wrong_turns.append(
                (f"wrong-turn:{j}", simulate(town, objective, fault=f"wrong-turn:{j}"))
            )
    skips = [
        (f"skip:{i}", simulate(town, objective, fault=f"skip:{i}"))
        for i in range(2, honest.n - 1)
    ]
    return honest, forges, wrong_turns, skips


IDENTS = st.sampled_from(("x", "y", "zz", "v_one"))
CMPS = st.sampled_from(_CMP)

def _arith(names):
    """Integer expressions over the identifiers ``names``."""
    return st.recursive(
        st.one_of(st.builds(IntLit, st.integers(-9, 9)), st.builds(Name, st.sampled_from(names))),
        lambda children: st.builds(BinOp, st.sampled_from(("+", "-", "*")), children, children),
        max_leaves=6,
    )


def _bool_exprs(names):
    """Boolean expressions over the identifiers ``names``."""
    arith = _arith(names)
    return st.recursive(
        st.one_of(
            st.builds(BoolLit, st.booleans()),
            st.builds(BinOp, CMPS, arith, arith),
        ),
        lambda children: st.one_of(
            st.builds(NotOp, children),
            st.builds(BinOp, st.sampled_from(("&", "|")), children, children),
        ),
        max_leaves=6,
    )


@st.composite
def models(draw):
    """Well-typed models of one to three small variables, an optional
    constant, up to three commands and an optional init constraint."""
    var_count = draw(st.integers(1, 3))
    names = ("x", "y", "zz")[:var_count]
    variables = []
    for name in names:
        lo = draw(st.integers(-4, 2))
        hi = lo + draw(st.integers(0, 5))
        variables.append(VarDecl(name, lo, hi, draw(st.integers(lo, hi))))
    consts = {}
    if draw(st.booleans()):
        consts["v_one"] = draw(st.integers(-9, 9))
    declared = names + tuple(consts)
    arith, bool_exprs = _arith(declared), _bool_exprs(declared)
    commands = []
    for _ in range(draw(st.integers(0, 3))):
        guard = draw(bool_exprs)
        updates = []
        perm = draw(st.permutations(names))
        for target in perm[: draw(st.integers(0, var_count))]:
            updates.append((target, draw(arith)))
        label = draw(st.one_of(st.none(), st.just("act")))
        commands.append(GuardedCommand(label, guard, tuple(updates)))
    init_c = None
    if draw(st.booleans()):
        init_c = draw(bool_exprs)
    return SystemModel(consts, tuple(variables), tuple(commands), init_c)

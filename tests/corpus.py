"""Seeded random corpora: graphs, formulas and towns for the big sweeps,
and a hypothesis strategy for guarded-command models."""

from __future__ import annotations

import random

from hypothesis import strategies as st

from traceval import ctl
from traceval.expr import BinOp, BoolLit, IntLit, Name, NotOp, expr_names
from traceval.model import GuardedCommand, StateGraph, SystemModel, VarDecl
from traceval.town import ACTIONS, DIR_VECS, Objective, ObjectiveStep, TownMap, TownNode, turn

GRAPH_VARS = ("x", "y")
_CMP = ("==", "!=", "<", "<=", ">", ">=")


def random_graph(rng: random.Random, max_states: int = 64, max_degree: int = 4) -> StateGraph:
    n = rng.randint(1, max_states)
    states = tuple((rng.randint(0, 7), rng.randint(0, 7)) for _ in range(n))
    succ = tuple(
        frozenset(rng.randrange(n) for _ in range(rng.randint(1, max_degree)))
        for _ in range(n)
    )
    initial = frozenset({rng.randrange(n)})
    return StateGraph(GRAPH_VARS, states, initial, succ)


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


IDENTS = st.sampled_from(("x", "y", "zz", "v_one"))
CMPS = st.sampled_from(_CMP)

_arith = st.recursive(
    st.one_of(st.builds(IntLit, st.integers(-9, 9)), st.builds(Name, IDENTS)),
    lambda children: st.builds(BinOp, st.sampled_from(("+", "-", "*")), children, children),
    max_leaves=6,
)

_bool_exprs = st.recursive(
    st.one_of(
        st.builds(BoolLit, st.booleans()),
        st.builds(BinOp, CMPS, _arith, _arith),
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
    declared = set(names) | set(consts)
    commands = []
    for _ in range(draw(st.integers(0, 3))):
        guard = draw(_bool_exprs.filter(lambda e: _names_ok(e, declared)))
        updates = []
        perm = draw(st.permutations(names))
        for target in perm[: draw(st.integers(0, var_count))]:
            rhs = draw(_arith.filter(lambda e: _names_ok(e, declared)))
            updates.append((target, rhs))
        label = draw(st.one_of(st.none(), st.just("act")))
        commands.append(GuardedCommand(label, guard, tuple(updates)))
    init_c = None
    if draw(st.booleans()):
        init_c = draw(_bool_exprs.filter(lambda e: _names_ok(e, declared)))
    return SystemModel(consts, tuple(variables), tuple(commands), init_c)


def _names_ok(expr, declared):
    return expr_names(expr) <= declared

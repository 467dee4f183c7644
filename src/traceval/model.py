"""Guarded-command system models and explicit state-graph construction.

A model is a list of integer variables with finite ranges, a constant map
and a list of guarded commands.  A state (valuation) is one integer per
variable in declaration order.  ``step`` fires every enabled command once
(updates read the pre-state); states with no enabled command keep their
valuation, which materializes as a self-loop in the built graph so the
transition relation is total.

A built graph stores its transition relation once, as compressed sparse
rows of successors and of their transpose, the predecessors, both made in
the constructor; nothing is cached lazily.  Models and built graphs are
immutable after construction and safe to share across threads for
concurrent reads.
"""

from __future__ import annotations

import itertools
from array import array
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

from .errors import EvalError, ModelError, StateExplosionError
from .expr import Expr, eval_expr, expr_names

Valuation = tuple[int, ...]

DEFAULT_STATE_BUDGET = 1_000_000


@dataclass(frozen=True)
class VarDecl:
    """One variable: finite range ``lo..hi`` and a declared initial value."""

    name: str
    lo: int
    hi: int
    init: int

    def __post_init__(self):
        if self.hi < self.lo:
            raise ModelError(f"variable '{self.name}': empty domain {self.lo}..{self.hi}")
        if not self.lo <= self.init <= self.hi:
            raise ModelError(
                f"variable '{self.name}': init out of bounds "
                f"({self.init} not in {self.lo}..{self.hi})"
            )


@dataclass(frozen=True)
class GuardedCommand:
    """``[label] guard -> updates``; an empty update list means ``skip``."""

    label: str | None
    guard: Expr
    updates: tuple[tuple[str, Expr], ...]

    def __post_init__(self):
        targets = [name for name, _ in self.updates]
        if len(targets) != len(set(targets)):
            raise ModelError(f"command [{self.label or ''}]: variable updated twice")

    def describe(self, index: int) -> str:
        return f"command #{index + 1}" + (f" [{self.label}]" if self.label else "")


@dataclass(frozen=True)
class SystemModel:
    constants: Mapping[str, int]
    variables: tuple[VarDecl, ...]
    commands: tuple[GuardedCommand, ...]
    init_constraint: Expr | None = None

    def __post_init__(self):
        if not self.variables:
            raise ModelError("model declares no variables")
        names = [v.name for v in self.variables]
        if len(names) != len(set(names)):
            raise ModelError("duplicate variable declaration")
        clash = set(names) & set(self.constants)
        if clash:
            raise ModelError(f"constant and variable share a name: {sorted(clash)}")
        declared = set(names) | set(self.constants)
        for i, cmd in enumerate(self.commands):
            unknown = expr_names(cmd.guard) - declared
            for _, rhs in cmd.updates:
                unknown |= expr_names(rhs) - declared
            if unknown:
                raise ModelError(
                    f"{cmd.describe(i)}: unknown identifier(s) {sorted(unknown)}"
                )
            for name, _ in cmd.updates:
                if name not in names:
                    raise ModelError(f"{cmd.describe(i)}: '{name}' is not a variable")
        if self.init_constraint is not None:
            unknown = expr_names(self.init_constraint) - declared
            if unknown:
                raise ModelError(f"init constraint: unknown identifier(s) {sorted(unknown)}")

    @property
    def var_names(self) -> tuple[str, ...]:
        return tuple(v.name for v in self.variables)

    def declared_init(self) -> Valuation:
        return tuple(v.init for v in self.variables)


def step(model: SystemModel, v: Valuation) -> list[Valuation]:
    """Successor valuations of ``v``: one per enabled command, deduplicated
    and sorted; ``[v]`` itself when no command is enabled.

    All update right-hand sides are evaluated against the pre-state, so
    updates within one command are simultaneous.
    """
    env = dict(zip(model.var_names, v))
    bounds = {decl.name: (decl.lo, decl.hi) for decl in model.variables}
    index = {decl.name: i for i, decl in enumerate(model.variables)}
    out: set[Valuation] = set()
    for i, cmd in enumerate(model.commands):
        enabled = eval_expr(cmd.guard, env, model.constants)
        if not isinstance(enabled, bool):
            raise ModelError(f"{cmd.describe(i)}: guard is not boolean")
        if not enabled:
            continue
        nxt = list(v)
        for name, rhs in cmd.updates:
            val = eval_expr(rhs, env, model.constants)
            if isinstance(val, bool):
                raise ModelError(f"{cmd.describe(i)}: update of '{name}' is not integer")
            lo, hi = bounds[name]
            if not lo <= val <= hi:
                raise ModelError(
                    f"{cmd.describe(i)}: update drives '{name}' to {val}, "
                    f"outside {lo}..{hi}"
                )
            nxt[index[name]] = val
        out.add(tuple(nxt))
    if not out:
        return [v]
    return sorted(out)


class StateGraph:
    """Explicit state graph: indexed valuations plus a total transition
    relation, stored once as compressed sparse rows in both directions.

    ``initial`` and every successor refer to indices into ``states``.
    ``succ`` gives, per state, any iterable of successor indices; duplicates
    collapse.  Successors and their transpose, the predecessors, are kept as
    ``array('i')`` offsets plus targets, each row sorted ascending.  Every
    field is set in the constructor and never changes afterwards.
    """

    def __init__(
        self,
        variables: Sequence[str],
        states: Sequence[Valuation],
        initial: Iterable[int],
        succ: Sequence[Iterable[int]],
    ):
        self.variables = tuple(variables)
        self.states = tuple(states)
        self.initial = frozenset(initial)
        n = len(self.states)
        if len(succ) != n:
            raise ValueError(f"{len(succ)} successor rows for {n} states")
        start, targets = array("i", [0]), array("i")
        for row in succ:
            targets.extend(sorted(set(row)))
            start.append(len(targets))
        if targets and not (0 <= min(targets) and max(targets) < n):
            raise ValueError(f"successor index outside 0..{n - 1}")
        # Transpose by counting sort.  Sources are visited in ascending
        # order, so every predecessor row comes out sorted too.
        in_degree = [0] * n
        for t in targets:
            in_degree[t] += 1
        pred_start = array("i", [0])
        pred_start.extend(itertools.accumulate(in_degree))
        free = pred_start.tolist()
        preds = array("i", targets)
        for s in range(n):
            for t in targets[start[s]:start[s + 1]]:
                preds[free[t]] = s
                free[t] += 1
        self._succ_start, self._succ = start, targets
        self._pred_start, self._pred = pred_start, preds

    @property
    def state_count(self) -> int:
        return len(self.states)

    @property
    def edge_count(self) -> int:
        return len(self._succ)

    def successors(self, i: int) -> array:
        return self._succ[self._succ_start[i]:self._succ_start[i + 1]]

    def predecessors(self, i: int) -> array:
        return self._pred[self._pred_start[i]:self._pred_start[i + 1]]

    def var_index(self, name: str) -> int:
        try:
            return self.variables.index(name)
        except ValueError:
            raise EvalError(f"unknown variable '{name}'") from None


def _initial_valuations(model: SystemModel, budget: int) -> list[Valuation]:
    base = model.declared_init()
    if model.init_constraint is None:
        return [base]
    # Widening constraint: every domain valuation satisfying it is initial,
    # alongside the declared init vector.  Enumeration is bounded by the
    # state budget to keep degenerate constraints from running away.
    inits = {base}
    ranges = [range(v.lo, v.hi + 1) for v in model.variables]
    names = model.var_names
    for count, cand in enumerate(itertools.product(*ranges), start=1):
        if count > budget:
            raise StateExplosionError(
                f"state explosion: init constraint enumeration exceeded {budget} candidates"
            )
        if eval_expr(model.init_constraint, dict(zip(names, cand)), model.constants):
            inits.add(cand)
    return sorted(inits)


def build_graph(model: SystemModel, max_states: int = DEFAULT_STATE_BUDGET) -> StateGraph:
    """Breadth-first closure of the reachable state space.

    Deterministic: initial valuations are seeded in sorted order and each
    state's successors are explored in sorted order, so equal models yield
    bit-identical graphs.  Raises :class:`StateExplosionError` once more
    than ``max_states`` distinct states are discovered.
    """
    inits = _initial_valuations(model, max_states)
    index: dict[Valuation, int] = {}
    states: list[Valuation] = []

    def intern(v: Valuation) -> int:
        found = index.get(v)
        if found is None:
            if len(states) >= max_states:
                raise StateExplosionError(
                    f"state explosion: more than {max_states} reachable states"
                )
            found = index[v] = len(states)
            states.append(v)
        return found

    for v in inits:
        intern(v)
    # States are numbered in discovery order, so visiting them by index, as
    # the list grows, is the breadth-first queue.
    succ = [[intern(nxt) for nxt in step(model, v)] for v in states]
    return StateGraph(
        variables=model.var_names,
        states=states,
        initial=(index[v] for v in inits),
        succ=succ,
    )

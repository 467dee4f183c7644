"""Guarded-command system models and explicit state-graph construction.

A model is a list of integer variables with finite ranges, a constant map
and a list of guarded commands.  A state (valuation) is one integer per
variable in declaration order.  ``step`` fires every enabled command once
(updates read the pre-state); states with no enabled command keep their
valuation, which materializes as a self-loop in the built graph so the
transition relation is total.

``compile_step`` compiles every guard and update into a function of the
valuation tuple once per model, and returns the successor function that
``step`` and ``build_graph`` both call; no state builds a dict or walks an
expression tree.  Static type errors in guards, runtime errors in updates
and arithmetic overflow all raise :class:`ModelError` naming the command.

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
from typing import Callable, Iterable, Mapping, Sequence

from .errors import EvalError, ModelError, StateExplosionError
from .expr import BoolLit, Expr, compile_expr, expr_names

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


def _fails(message: str):
    def fail(v: Valuation):
        raise ModelError(message)

    return fail


def _compile_command(model: SystemModel, names: tuple[str, ...], i: int):
    """``(where, guard, fire)`` for command ``i``: its description, whether
    it is enabled at a valuation, and the valuation it leads to.  Like a
    failing update, an update that cannot be typed raises only when its
    command fires."""
    cmd = model.commands[i]
    where = cmd.describe(i)
    try:
        kind, guard = compile_expr(cmd.guard, names, model.constants)
    except EvalError as exc:
        raise ModelError(f"{where}: {exc}") from None
    if kind != "bool":
        raise ModelError(f"{where}: guard is not boolean")
    updates = []
    for name, rhs in cmd.updates:
        slot = names.index(name)
        decl = model.variables[slot]
        try:
            kind, value = compile_expr(rhs, names, model.constants)
        except EvalError as exc:
            kind, value = "int", _fails(f"{where}: {exc}")
        if kind != "int":
            value = _fails(f"{where}: update of '{name}' is not integer")
        updates.append((slot, value, decl.lo, decl.hi, name))

    def fire(v: Valuation) -> Valuation:
        nxt = list(v)
        for slot, value, lo, hi, name in updates:
            val = value(v)
            if not lo <= val <= hi:
                raise ModelError(
                    f"{where}: update drives '{name}' to {val}, outside {lo}..{hi}"
                )
            nxt[slot] = val
        return tuple(nxt)

    return where, guard, fire


def compile_step(model: SystemModel) -> Callable[[Valuation], list[Valuation]]:
    """Compile every guard and update of ``model`` once, and return its
    successor function: see :func:`step`.

    Raises :class:`ModelError` for a guard that is not boolean or cannot be
    typed; the successor function raises it when an update is not integer
    or leaves its variable's range, or when arithmetic overflows.
    """
    names = model.var_names
    # A command guarded by the literal 'false' never fires, so its updates
    # are never evaluated; reduced models consist mostly of such commands.
    commands = [
        _compile_command(model, names, i)
        for i, cmd in enumerate(model.commands)
        if cmd.guard != BoolLit(False)
    ]

    def successors(v: Valuation) -> list[Valuation]:
        out: set[Valuation] = set()
        try:
            for where, guard, fire in commands:
                if guard(v):
                    out.add(fire(v))
        except EvalError as exc:
            raise ModelError(f"{where}: {exc}") from None
        return sorted(out) if out else [v]

    return successors


def step(model: SystemModel, v: Valuation) -> list[Valuation]:
    """Successor valuations of ``v``: one per enabled command, deduplicated
    and sorted; ``[v]`` itself when no command is enabled.

    All update right-hand sides are evaluated against the pre-state, so
    updates within one command are simultaneous.
    """
    return compile_step(model)(v)


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

    @property
    def successor_rows(self) -> tuple[array, array]:
        """``(start, targets)``: the successors of state ``i`` are
        ``targets[start[i]:start[i + 1]]``.  Callers must not modify them."""
        return self._succ_start, self._succ

    @property
    def predecessor_rows(self) -> tuple[array, array]:
        """``(start, sources)``: the predecessors of state ``i`` are
        ``sources[start[i]:start[i + 1]]``.  Callers must not modify them."""
        return self._pred_start, self._pred

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
    try:
        _, allows = compile_expr(model.init_constraint, model.var_names, model.constants)
        inits = {base}
        ranges = [range(v.lo, v.hi + 1) for v in model.variables]
        for count, cand in enumerate(itertools.product(*ranges), start=1):
            if count > budget:
                raise StateExplosionError(
                    f"state explosion: init constraint enumeration exceeded {budget} candidates"
                )
            if allows(cand):
                inits.add(cand)
    except EvalError as exc:
        raise ModelError(f"init constraint: {exc}") from None
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
    successors = compile_step(model)
    # States are numbered in discovery order, so visiting them by index, as
    # the list grows, is the breadth-first queue.
    succ = [[intern(nxt) for nxt in successors(v)] for v in states]
    return StateGraph(
        variables=model.var_names,
        states=states,
        initial=(index[v] for v in inits),
        succ=succ,
    )

"""Guarded-command system models and explicit state-graph construction.

A model is a list of integer variables with finite ranges, a constant map
and a list of guarded commands.  A state (valuation) is one integer per
variable in declaration order.  A step fires every enabled command once
(updates read the pre-state); states with no enabled command keep their
valuation, which materializes as a self-loop in the built graph so the
transition relation is total.

``compile_model`` is the one preparation of a model.  It compiles the init
constraint, every guard and every update once, and each distinct
subexpression once: a node that several of them share, as
``lang.parse_model`` shares equal subexpressions, is compiled the first
time it is met.  It returns the sorted initial valuations and the
successor function, the pair that ``build_graph``, the validator's walk
and its sizing all start from; no state builds a dict or walks an
expression tree.  What is data stays data: a guard's pins, the
``var==const`` conjuncts of its top-level ``&`` chain, an update to a
literal in range, and a shifted update such as ``x'=x+1`` or ``x'=y-K``
are kept as values, not closures.
A command needs no closure of its own to fire: the successor function
writes its literals and computes its updates in its own frame, and calls
only the guards and the updates that are not data.  Commands are
dispatched on their pins: those pinning the same variables share a table
keyed by the pinned values, so a state looks up the commands whose pins
it meets, one lookup per table, and tries only those and the commands
with no pins, in declaration order.  A command whose rest of guard can
raise is tried at every state instead.
Static type errors in guards, runtime errors in updates and arithmetic
overflow all raise :class:`ModelError` naming the first failing command.

Names in expressions are checked where they are resolved.  ``lang``
refuses model text that uses an undeclared name; for a model constructed
directly, ``SystemModel`` checks only its declarations and update
targets, and compiling resolves every other name.  An unknown name in a
guard or in the init constraint raises :class:`ModelError` from
``compile_model``; one in an update raises when its command fires, as an
update that cannot be typed does.

A built graph stores its transition relation once, as compressed sparse
rows of predecessors, the one relation CTL labelling reads.
``build_graph`` writes successor rows as it visits the states, numbering a
successor it has numbered before with no Python call, and the graph
transposes them when it is built and keeps only the transpose.
Graphs serve CTL labelling (``check``) alone: the validator judges and
sizes logs with ``checker.reach`` over the successor function and builds
none.  Models and built graphs are immutable after construction and safe
to share across threads for concurrent reads.
"""

from __future__ import annotations

import itertools
import math
from array import array
from operator import itemgetter
from dataclasses import dataclass
from typing import Callable, Iterable, Mapping, Sequence

from .errors import EvalError, ModelError, StateExplosionError
from .expr import INT_MAX, INT_MIN, Expr, compile_parts, conjunction

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
        for i, cmd in enumerate(self.commands):
            for name, _ in cmd.updates:
                if name not in names:
                    raise ModelError(f"{cmd.describe(i)}: '{name}' is not a variable")

    @property
    def var_names(self) -> tuple[str, ...]:
        return tuple(v.name for v in self.variables)


def _fails(message: str):
    def fail(v: Valuation):
        raise ModelError(message)

    return fail


def _compile_command(model: SystemModel, slots: Mapping[str, int], i: int, memo: dict):
    """``(where, pins, rest, safe, literals, updates)`` for command ``i``, or
    ``None`` when its guard is the literal ``false``, so that it never
    fires.  ``memo`` is the memo of :func:`~traceval.expr.compile_parts`
    that every command of the model shares.

    The guard holds where every ``(slot, value)`` pin holds and ``rest``,
    unless it is ``None``, is true; ``safe`` means ``rest`` cannot raise.
    ``where`` describes the command.  Firing it writes the ``(slot,
    value)`` literals, which lie in their variables' ranges, into a copy of
    the valuation, then each ``(slot, src, offset, fn, lo, hi, name)``
    update in declaration order: a shift, ``src`` not ``None``, gives
    ``v[src] + offset``, and any other update ``fn(v)``; a value outside
    ``lo..hi`` fails.  A shift that fails calls ``fn``, which raises its
    64-bit overflow, if any.  Like a failing update, an update that cannot
    be typed raises only when its command fires."""
    cmd = model.commands[i]
    where = cmd.describe(i)
    try:
        kind, pins, rest, safe, value, _ = compile_parts(cmd.guard, slots, model.constants, memo)
    except EvalError as exc:
        raise ModelError(f"{where}: {exc}") from None
    if kind != "bool":
        raise ModelError(f"{where}: guard is not boolean")
    if value is False:
        return None
    # A literal update inside its variable's range is data: it is written
    # into the successor and never checked again.  A shift is data too, when
    # its variable's range lies in 64 bits: a value in that range cannot
    # have overflowed, so the overflow test waits for one outside it.
    literals, updates = [], []
    for name, rhs in cmd.updates:
        slot = slots[name]
        decl = model.variables[slot]
        try:
            kind, _, fn, _, value, shift = compile_parts(rhs, slots, model.constants, memo)
        except EvalError as exc:
            kind, fn, value, shift = "int", _fails(f"{where}: {exc}"), None, None
        if kind != "int":
            fn, value = _fails(f"{where}: update of '{name}' is not integer"), None
        if value is not None and decl.lo <= value <= decl.hi:
            literals.append((slot, value))
            continue
        if fn is None:
            fn = _constant(value)
        src, offset = shift if shift and INT_MIN <= decl.lo and decl.hi <= INT_MAX else (None, 0)
        updates.append((slot, src, offset, fn, decl.lo, decl.hi, name))
    return where, pins, rest, safe, literals, updates


def _constant(value: int):
    return lambda v: value


def _initial_valuations(model: SystemModel, slots: Mapping[str, int], memo: dict, budget: int):
    base = tuple(v.init for v in model.variables)
    if model.init_constraint is None:
        return (base,)
    # Widening constraint: every domain valuation satisfying it is initial,
    # alongside the declared init vector.  The domain's size is checked
    # against the state budget before enumerating, since itertools.product
    # turns every range into a tuple before it yields anything.
    try:
        kind, pins, rest, safe, value, _ = compile_parts(model.init_constraint, slots, model.constants, memo)
        if kind != "bool":
            raise ModelError("init constraint is not boolean")
        if math.prod(v.hi - v.lo + 1 for v in model.variables) > budget:
            raise StateExplosionError(
                f"state explosion: init constraint enumeration exceeded {budget} candidates"
            )
        allows = conjunction(pins, rest, safe) or _constant(value)
        ranges = [range(v.lo, v.hi + 1) for v in model.variables]
        inits = {base, *filter(allows, itertools.product(*ranges))}
    except EvalError as exc:
        raise ModelError(f"init constraint: {exc}") from None
    return tuple(sorted(inits))


def compile_model(
    model: SystemModel, max_states: int = DEFAULT_STATE_BUDGET
) -> tuple[tuple[Valuation, ...], Callable[[Valuation], list[Valuation]]]:
    """``(initial, successors)``: the sorted initial valuations of ``model``,
    the declared init vector and every valuation its init constraint
    allows, and its successor function.  Sorted is the order ``build_graph``
    numbers states in and the sizing searches in.  The init constraint,
    the guards and the updates share one memo, so a node is compiled once.

    The successors of a valuation ``v`` are one valuation per enabled
    command, deduplicated and sorted, or ``[v]`` itself when no command is
    enabled.  All update right-hand sides are evaluated against ``v``, so
    updates within one command are simultaneous.  The successor function
    fires each enabled command itself, from the data ``_compile_command``
    gives: it writes the literals, then computes the updates in
    declaration order, a shift inline and any other update by its
    function, so that the first failing update is the one named.

    Commands are dispatched on the pins of their guards, the ``var==const``
    conjuncts of a guard's top-level ``&`` chain.  Commands whose pins fix
    the same variables share one table, keyed by the pinned values; at each
    state one lookup per table returns the commands whose pins hold there,
    and only those, plus the commands with no pins, are tried, in
    declaration order, so that the first failing command is the one named.
    A command is put in a table only when the rest of its guard cannot
    raise, so that skipping it where its pins fail changes nothing; any
    other command is tried at every state with its whole guard.  A command
    with contradictory pins, such as ``x==1 & x==2``, and one guarded by
    the literal ``false`` are dropped.  A model with no pins is scanned as
    a plain list, with no lookup.

    Raises :class:`ModelError` for an init constraint or a guard that is
    not boolean or cannot be typed, or an init constraint that overflows,
    and :class:`StateExplosionError` for an init constraint over more than
    ``max_states`` valuations, the init constraint's before any guard's;
    the successor function raises :class:`ModelError` when an update is
    not integer or leaves its variable's range, or when arithmetic overflows.
    """
    slots = {name: i for i, name in enumerate(model.var_names)}
    memo: dict = {}  # id of each node compiled so far -> what it compiled to
    initial = _initial_valuations(model, slots, memo, max_states)
    scanned = []  # (index, where, guard, literals, updates), tried at every state
    tables: dict[tuple[int, ...], dict] = {}
    for i in range(len(model.commands)):
        compiled = _compile_command(model, slots, i, memo)
        if compiled is None:
            continue
        where, pins, rest, safe, literals, updates = compiled
        if not (pins and safe):
            scanned.append((i, where, conjunction(pins, rest, safe) or _always, literals, updates))
            continue
        fixed: dict[int, int] = {}
        if any(fixed.setdefault(slot, value) != value for slot, value in pins):
            continue  # contradictory pins: never enabled, and the rest cannot raise
        pinned = tuple(sorted(fixed))
        key = tuple(fixed[slot] for slot in pinned)
        table = tables.setdefault(pinned, {})
        # itemgetter of one slot returns the value itself, so one-slot
        # tables are keyed by bare values
        command = (i, where, rest or _always, literals, updates)
        table.setdefault(key if len(key) > 1 else key[0], []).append(command)
    lookups = [(itemgetter(*pinned), table.get) for pinned, table in tables.items()]

    def successors(v: Valuation) -> list[Valuation]:
        commands = scanned
        if lookups:
            # a loop, as a comprehension would make ``v`` a cell that every
            # read below goes through (and, before Python 3.12, a call)
            commands = scanned.copy()
            for get, lookup in lookups:
                commands += lookup(get(v), ())
            commands.sort()  # declaration order; indices are unique
        out = []
        try:
            for _, where, guard, literals, updates in commands:
                if guard(v):
                    nxt = list(v)
                    for slot, value in literals:
                        nxt[slot] = value
                    for slot, src, offset, fn, lo, hi, name in updates:
                        val = fn(v) if src is None else v[src] + offset
                        if not lo <= val <= hi:
                            if src is not None:
                                fn(v)  # raises where the shift overflowed
                            raise ModelError(
                                f"{where}: update drives '{name}' to {val}, outside {lo}..{hi}"
                            )
                        nxt[slot] = val
                    out.append(tuple(nxt))
        except EvalError as exc:
            raise ModelError(f"{where}: {exc}") from None
        if len(out) == 2:  # ordered by comparing, which is cheaper than hashing into a set
            a, b = out
            return out if a < b else [b, a] if b < a else [a]
        if len(out) > 2:
            return sorted(set(out))
        return out or [v]

    return initial, successors


def _always(v: Valuation) -> bool:
    return True


class StateGraph:
    """Explicit state graph: indexed valuations plus a total transition
    relation, stored once as compressed sparse rows of predecessors.

    ``initial`` and every successor refer to indices into ``states``.
    ``succ`` gives, per state, any iterable of successor indices; duplicates
    collapse.  The constructor checks every index, transposes the rows and
    keeps the predecessors alone, as ``array('i')`` offsets plus sources,
    each row sorted ascending.  Every field is set in the constructor and
    never changes afterwards.
    """

    def __init__(
        self,
        variables: Sequence[str],
        states: Sequence[Valuation],
        initial: Iterable[int],
        succ: Sequence[Iterable[int]],
    ):
        n = len(states)
        if len(succ) != n:
            raise ValueError(f"{len(succ)} successor rows for {n} states")
        start, targets = array("i", [0]), array("i")
        for row in succ:
            targets.extend(set(row))
            start.append(len(targets))
        initial = frozenset(initial)
        for what, indices in (("successor", targets), ("initial", initial)):
            if indices and not (0 <= min(indices) and max(indices) < n):
                raise ValueError(f"{what} index outside 0..{n - 1}")
        self._set(variables, states, initial, start, targets)

    @classmethod
    def from_rows(
        cls,
        variables: Sequence[str],
        states: Sequence[Valuation],
        initial: Iterable[int],
        start: array,
        targets: array,
    ) -> "StateGraph":
        """A graph from its successor rows: the successors of state ``i``
        are ``targets[start[i]:start[i + 1]]``, each row duplicate-free.
        The graph keeps their transpose, not the arrays; nothing is
        checked."""
        graph = cls.__new__(cls)
        graph._set(variables, states, initial, start, targets)
        return graph

    def _set(self, variables, states, initial, start, targets):
        self.variables = tuple(variables)
        self.states = tuple(states)
        self.initial = frozenset(initial)
        self._pred_start, self._pred = _transpose(start, targets)

    @property
    def state_count(self) -> int:
        return len(self.states)

    @property
    def edge_count(self) -> int:
        return len(self._pred)

    @property
    def predecessor_rows(self) -> tuple[array, array]:
        """``(start, sources)``: the predecessors of state ``i`` are
        ``sources[start[i]:start[i + 1]]``.  Callers must not modify them."""
        return self._pred_start, self._pred

    def predecessors(self, i: int) -> array:
        return self._pred[self._pred_start[i]:self._pred_start[i + 1]]

    def var_index(self, name: str) -> int:
        try:
            return self.variables.index(name)
        except ValueError:
            raise EvalError(f"unknown variable '{name}'") from None


def _transpose(start: array, targets: array) -> tuple[array, array]:
    """The rows of the transpose of the relation ``(start, targets)``, by
    counting sort.  Sources are visited in ascending order, so every row
    comes out sorted too."""
    n = len(start) - 1
    in_degree = [0] * n
    for t in targets:
        in_degree[t] += 1
    pred_start = array("i", [0])
    pred_start.extend(itertools.accumulate(in_degree))
    free = pred_start.tolist()
    sources = array("i", targets)
    for s in range(n):
        for t in targets[start[s]:start[s + 1]]:
            sources[free[t]] = s
            free[t] += 1
    return pred_start, sources


class _Numbering(dict):
    """Valuation -> index, numbering the valuations in discovery order: a
    valuation not yet numbered is appended to ``states`` and given the next
    index, unless ``max_states`` are numbered already."""

    def __init__(self, max_states: int):
        super().__init__()
        self.states: list[Valuation] = []
        self.max_states = max_states

    def __missing__(self, v: Valuation) -> int:
        n = len(self.states)
        if n >= self.max_states:
            raise StateExplosionError(f"state explosion: more than {self.max_states} reachable states")
        self.states.append(v)
        self[v] = n
        return n


def build_graph(model: SystemModel, max_states: int = DEFAULT_STATE_BUDGET) -> StateGraph:
    """Breadth-first closure of the reachable state space.

    Deterministic: initial valuations are seeded in sorted order and each
    state's successors are explored in sorted order, so equal models yield
    bit-identical graphs.  States are numbered by a dict whose
    ``__missing__`` numbers a new one, so a successor numbered before costs
    one lookup in C.  Raises :class:`StateExplosionError` once more than
    ``max_states`` distinct states are discovered.
    """
    inits, successors = compile_model(model, max_states)
    numbering = _Numbering(max_states)
    number = numbering.__getitem__
    initial = list(map(number, inits))
    states = numbering.states
    # States are numbered in discovery order, so visiting them by index, as
    # the list grows, is the breadth-first queue, and each state's row is
    # written right after the row before it.  Successor valuations are
    # distinct, so their indices need no deduplication, and one already
    # numbered is looked up in C, with no Python call.
    start, targets = array("i", [0]), array("i")
    for v in states:
        targets.extend(map(number, successors(v)))
        start.append(len(targets))
    del numbering, number  # the numbering, freed before the transpose
    return StateGraph.from_rows(model.var_names, states, initial, start, targets)

"""Explicit-state CTL checking by bottom-up labeling, and the forward walk
that judges logs.

Satisfaction sets are integer bitmasks over state indices.  Each operator
is computed from its children's sets: atoms scan one variable's column
of values, boolean connectives are set algebra, EX marks the
predecessors of the child's members, EF is a least fixpoint computed as a
backward worklist over predecessors, and EG a greatest fixpoint that
counts each member's successors inside the set and drops members whose
count reaches zero.  Each temporal operator is O(|S| + |E|): it turns its
bitmask into per-state marks once, walks the graph's predecessor rows and
turns the marks back into one bitmask.  AX, AF and AG go through their
existential duals, so only three temporal algorithms exist.

An atom ``var op c`` is one pass of the comparator over that variable's
column, its value in each state, for all six comparators alike.  The
``sat`` cache keeps each column and each distinct atom's mask, so each
column is read once and equal atoms in different subformulas are scanned
once.

``sat`` walks the formula iteratively (no recursion), which keeps deeply
nested generated properties within interpreter limits.  It is a pure
function of immutable inputs and safe to call concurrently on a shared
graph.

Labelling serves ``check`` and ``gen-property``.  Logs are judged by
``follow`` instead, which decides the property ``execlog.log_property``
builds without labelling the graph.  A log names every variable, so each
row is one valuation, and ``StateGraph.states_with`` finds its states.
The walk keeps the frontier of states some path of the graph can reach
while following the rows so far:

* F1 is the initial states of row 1;
* strong: F(k+1) is the successors of Fk in row k+1;
* weak: F(k+1) is the states of row k+1 reachable from Fk in zero or more
  steps, by a forward search that stops once it has found them all;
* the chain ends at row n-1 (``faithful``) or row n (``corrected``), and
  the log is admitted when some frontier state satisfies AG(row n).  One
  backward pass over row n's states decides that per state: a union of
  the frontier's closures would be wrong when several states share row
  n's valuation.

Each step costs the frontier's out-edges, or the weak search's explored
part of the graph, not O(|S|).  The walk reads only successor rows, so it
never makes the graph build its predecessor rows; only EX, EF and EG, and
their duals, do.  The first empty frontier is the ``Witness``: the row
the log leaves the model at and the check it fails.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress, count, repeat
from operator import itemgetter

from . import ctl
from .errors import EvalError
from .execlog import ExecutionLog, check_shape
from .expr import CMP_OPS
from .model import StateGraph, Valuation

# Per-state marks are bytes, 1 for a member and 0 otherwise; a bitmask's
# binary digits, least significant first, are the same marks in ASCII.
_FROM_DIGITS = bytes.maketrans(b"01", b"\0\1")
_TO_DIGITS = bytes.maketrans(b"\0\1", b"01")


def _marks(mask: int, n: int) -> bytearray:
    return bytearray(bin(mask)[:1:-1].encode().translate(_FROM_DIGITS).ljust(n, b"\0"))


def _mask(marks) -> int:
    return int(marks[::-1].translate(_TO_DIGITS) or b"0", 2)


def _members(mask: int):
    """Ascending indices of the set bits of ``mask``."""
    # Each step of the set-bit walk copies the whole mask, so it beats the
    # walk over per-state marks only for a few set bits.  On a 10^6-bit
    # mask (CPython 3.11), one bit took 0.2 ms against 31 ms, and 256 bits
    # 19 ms against 31 ms; on a 10^4-bit mask, 256 bits took as long.
    bits = mask.bit_count()
    if bits < 128 and bits * 64 < mask.bit_length():
        return _set_bits(mask)
    return compress(count(), _marks(mask, 0))


def _set_bits(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class StateSet:
    """Immutable set of state indices backed by one integer bitmask."""

    __slots__ = ("mask", "universe")

    def __init__(self, mask: int, universe: int):
        self.mask = mask
        self.universe = universe

    @classmethod
    def from_indices(cls, indices, universe: int) -> "StateSet":
        marks = bytearray(universe)
        for i in indices:
            if not 0 <= i < universe:
                raise ValueError(f"state index {i} outside 0..{universe - 1}")
            marks[i] = 1
        return cls(_mask(marks), universe)

    def indices(self) -> tuple[int, ...]:
        return tuple(self)

    def complement(self) -> "StateSet":
        return StateSet(~self.mask & ((1 << self.universe) - 1), self.universe)

    def union(self, other: "StateSet") -> "StateSet":
        return StateSet(self.mask | other.mask, self.universe)

    def intersection(self, other: "StateSet") -> "StateSet":
        return StateSet(self.mask & other.mask, self.universe)

    def issubset(self, other: "StateSet") -> bool:
        return self.mask & ~other.mask == 0

    def __contains__(self, i: int) -> bool:
        return 0 <= i < self.universe and bool(self.mask >> i & 1)

    def __iter__(self):
        return _members(self.mask)

    def __len__(self) -> int:
        return self.mask.bit_count()

    def __bool__(self) -> bool:
        return self.mask != 0

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, StateSet)
            and self.mask == other.mask
            and self.universe == other.universe
        )

    def __hash__(self) -> int:
        return hash((self.mask, self.universe))

    def __repr__(self) -> str:
        return f"StateSet({{{', '.join(map(str, self))}}} of {self.universe})"


@dataclass(frozen=True)
class InitialFailure:
    """One initial state that misses the property, with the first top-level
    conjunct it violates (best-effort diagnostic)."""

    state: int
    valuation: Valuation
    conjunct: ctl.CtlFormula


@dataclass(frozen=True)
class CheckReport:
    holds: bool
    failures: tuple[InitialFailure, ...] = ()


def _column(graph: StateGraph, j: int) -> list:
    """Variable ``j``'s value in each state, in state order."""
    return list(map(itemgetter(j), graph.states))


def _scan(column: list, op: str, c: int) -> int:
    """The mask of the states whose value ``v`` in ``column`` has ``v op c``."""
    return _mask(bytes(map(CMP_OPS[op], column, repeat(c))))


def _cached_atom_mask(graph: StateGraph, atom: ctl.Atom, cache: dict) -> int:
    key = (atom.var, atom.op, atom.value)
    mask = cache.get(key)
    if mask is None:
        j = graph.var_index(atom.var)
        if atom.op not in CMP_OPS:
            raise EvalError(f"unknown comparator '{atom.op}'")
        column = cache.get(atom.var)
        if column is None:
            column = cache[atom.var] = _column(graph, j)
        mask = cache[key] = _scan(column, atom.op, atom.value)
    return mask


def _preimage(graph: StateGraph, z: int) -> int:
    start, sources = graph.predecessor_rows
    marks = bytearray(graph.state_count)
    for t in _members(z):
        for p in sources[start[t]:start[t + 1]]:
            marks[p] = 1
    return _mask(marks)


def _backward_reach(graph: StateGraph, seed: int) -> int:
    # Least fixpoint Z = seed ∪ EX Z as a worklist over predecessors.
    start, sources = graph.predecessor_rows
    inside = _marks(seed, graph.state_count)
    work = list(_members(seed))
    while work:
        t = work.pop()
        for p in sources[start[t]:start[t + 1]]:
            if not inside[p]:
                inside[p] = 1
                work.append(p)
    return _mask(inside)


def _eg_fixpoint(graph: StateGraph, seed: int) -> int:
    # Greatest fixpoint Z = seed ∩ EX Z.  ``left[s]`` counts the successors
    # of member s still in Z; a member leaves when its count reaches 0, and
    # each leaver lowers the count of its predecessors still in Z.
    succ_start, targets = graph.successor_rows
    pred_start, sources = graph.predecessor_rows
    inside = _marks(seed, graph.state_count)
    left = [0] * graph.state_count
    work = []
    for s in _members(seed):
        left[s] = sum(map(inside.__getitem__, targets[succ_start[s]:succ_start[s + 1]]))
        if not left[s]:
            work.append(s)
    for s in work:
        inside[s] = 0
    while work:
        t = work.pop()
        for p in sources[pred_start[t]:pred_start[t + 1]]:
            if inside[p]:
                left[p] -= 1
                if not left[p]:
                    inside[p] = 0
                    work.append(p)
    return _mask(inside)


def sat(
    graph: StateGraph,
    formula: ctl.CtlFormula,
    cache: dict | None = None,
) -> StateSet:
    """Exact satisfaction set of ``formula`` over ``graph``.

    ``cache`` maps ``id(subformula)`` to ``(subformula, mask)`` for every
    node evaluated, atoms included.  It also maps each variable name an atom
    has named to that variable's column, its value in each state, and each
    distinct atom's ``(var, op, value)`` to its mask, so each column is read
    and each distinct atom scanned once.  It may be shared across calls on
    the same graph to reuse all of these.
    """
    masks = cache if cache is not None else {}
    full = (1 << graph.state_count) - 1
    stack = [formula]
    while stack:
        node = stack[-1]
        if id(node) in masks:
            stack.pop()
            continue
        kids = ctl.children(node)
        missing = [k for k in kids if id(k) not in masks]
        if missing:
            stack.extend(missing)
            continue
        stack.pop()

        if isinstance(node, ctl.TrueF):
            mask = full
        elif isinstance(node, ctl.FalseF):
            mask = 0
        elif isinstance(node, ctl.Atom):
            mask = _cached_atom_mask(graph, node, masks)
        elif isinstance(node, ctl.Not):
            mask = ~masks[id(node.child)][1] & full
        elif isinstance(node, ctl.And):
            mask = masks[id(node.left)][1] & masks[id(node.right)][1]
        elif isinstance(node, ctl.Or):
            mask = masks[id(node.left)][1] | masks[id(node.right)][1]
        elif isinstance(node, ctl.EX):
            mask = _preimage(graph, masks[id(node.child)][1])
        elif isinstance(node, ctl.EF):
            mask = _backward_reach(graph, masks[id(node.child)][1])
        elif isinstance(node, ctl.EG):
            mask = _eg_fixpoint(graph, masks[id(node.child)][1])
        elif isinstance(node, ctl.AX):
            mask = ~_preimage(graph, ~masks[id(node.child)][1] & full) & full
        elif isinstance(node, ctl.AF):
            mask = ~_eg_fixpoint(graph, ~masks[id(node.child)][1] & full) & full
        elif isinstance(node, ctl.AG):
            mask = ~_backward_reach(graph, ~masks[id(node.child)][1] & full) & full
        else:
            raise EvalError(f"not a CTL formula: {node!r}")
        masks[id(node)] = (node, mask)
    return StateSet(masks[id(formula)][1], graph.state_count)


def holds_initially(graph: StateGraph, formula: ctl.CtlFormula) -> CheckReport:
    """Existential verdict over the initial states: holds iff some initial
    state satisfies the formula.

    On failure, reports for each initial state the first top-level conjunct
    it violates.
    """
    cache: dict = {}
    result = sat(graph, formula, cache)
    if any(i in result for i in graph.initial):
        return CheckReport(holds=True)
    # sat has labelled every subformula in cache, each conjunct included
    parts = [
        (part, StateSet(cache[id(part)][1], graph.state_count))
        for part in ctl.conjuncts(formula)
    ]
    failures = []
    for i in sorted(graph.initial):
        # the formula fails at i, so some conjunct does
        blame = next(part for part, states in parts if i not in states)
        failures.append(InitialFailure(state=i, valuation=graph.states[i], conjunct=blame))
    return CheckReport(holds=False, failures=tuple(failures))


@dataclass(frozen=True)
class Witness:
    """Where a log leaves the model: the first row (1-based) that no path
    of the graph follows, and the check that row fails: ``not-a-model-state``,
    ``not-initial``, ``no-transition`` (strong), ``unreachable`` (weak) or
    ``not-absorbing`` (the final AG)."""

    row: int
    check: str


def _reach_among(graph: StateGraph, sources, wanted) -> set[int]:
    """The states of ``wanted`` reachable from ``sources`` in zero or more
    steps: a breadth-first search that stops once it has found them all."""
    start, targets = graph.successor_rows
    wanted = set(wanted)
    seen = set(sources)
    found = wanted & seen
    queue = list(seen)
    for s in queue:
        if len(found) == len(wanted):
            break
        for t in targets[start[s]:start[s + 1]]:
            if t not in seen:
                seen.add(t)
                queue.append(t)
                if t in wanted:
                    found.add(t)
    return found


def _absorbing(graph: StateGraph, candidates, final) -> bool:
    """Whether some candidate satisfies AG(final): it is one of ``final``
    and no path from it leaves them.  The states of ``final`` that do reach
    outside are found backwards from the ones with a successor outside,
    over the edges within ``final``, whose transpose is built here from the
    successor rows: ``final``'s states share one valuation, so they are
    few, and one state in a graph from ``build_graph``."""
    start, targets = graph.successor_rows
    inside: dict[int, list[int]] = {s: [] for s in final}  # s -> its predecessors in final
    work = []
    for s in inside:
        leaves = False
        for t in targets[start[s]:start[s + 1]]:
            if t in inside:
                inside[t].append(s)
            else:
                leaves = True
        if leaves:
            work.append(s)
    leaks = set(work)
    while work:
        for p in inside[work.pop()]:
            if p not in leaks:
                leaks.add(p)
                work.append(p)
    return any(s in inside and s not in leaks for s in candidates)


def follow(
    graph: StateGraph, log: ExecutionLog, mode: str = "strong", base: str = "faithful"
) -> Witness | None:
    """``None`` when the graph admits the log, exactly when
    ``holds_initially(graph, log_property(log, mode, base)).holds``;
    otherwise where the log leaves the model.

    The log's columns must be the graph's variables, in order.  Raises
    :class:`LogError` for an unknown mode or base, as ``log_property`` does.
    """
    check_shape(mode, base)
    if log.variables != graph.variables:
        raise EvalError(
            f"log columns {', '.join(log.variables)} are not the graph's variables "
            f"{', '.join(graph.variables)}"
        )
    rows = log.rows
    start, targets = graph.successor_rows
    frontier: set[int] = set()
    for k in range(1, len(rows) if base == "faithful" else len(rows) + 1):
        pinned = graph.states_with(rows[k - 1])
        if not pinned:
            return Witness(k, "not-a-model-state")
        if k == 1:
            frontier = graph.initial.intersection(pinned)
            check = "not-initial"
        elif mode == "strong":
            after = {t for s in frontier for t in targets[start[s]:start[s + 1]]}
            frontier = after.intersection(pinned)
            check = "no-transition"
        else:
            frontier = _reach_among(graph, frontier, pinned)
            check = "unreachable"
        if not frontier:
            return Witness(k, check)
    final = graph.states_with(rows[-1])
    if not final:
        return Witness(len(rows), "not-a-model-state")
    if _absorbing(graph, frontier, final):
        return None
    return Witness(len(rows), "not-absorbing")

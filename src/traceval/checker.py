"""Explicit-state CTL checking by bottom-up labeling, and the forward walk
that judges logs.

Satisfaction sets are integer bitmasks over state indices.  Each operator
is computed from its children's sets: atoms scan one variable's column
of values, boolean connectives are set algebra, EX marks the
predecessors of the child's members, EF is a least fixpoint computed as a
backward worklist over predecessors, and EG a greatest fixpoint that
counts each member's successors inside the set, by walking the members'
predecessors, and drops members whose count reaches zero.  Each temporal
operator is O(|S| + |E|): it turns its bitmask into per-state marks once,
walks the graph's predecessor rows, the one relation a graph keeps, and
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

Labelling serves ``check``; ``gen-property`` only builds and prints a
property and decides nothing.  Logs are judged by ``follow`` instead,
which decides the property ``execlog.log_property`` builds without any
graph.  Each row names every variable, so it is one valuation, and at
most one state of a graph from ``build_graph``.  The walk steps the row it
stands on with the model's successor function:

* row 1 must be an initial valuation;
* strong: row k+1 must be among the successors of row k;
* weak: row k+1 is row k, one of its successors, or found by a forward
  search from row k (``reach``), which stops there;
* the chain ends at row n-1 (``faithful``) or row n (``corrected``), and
  AG(row n) holds there when it is row n and its only successor is itself.

So an admitted log costs its rows and weak searches, not the graph.  The
first refused row is the ``Witness``.  Run to the end from the initial
valuations, ``reach`` counts a model's states and edges with no graph.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress, count, repeat
from operator import itemgetter
from typing import Callable, Collection, Sequence

from . import ctl
from .errors import EvalError, StateExplosionError
from .execlog import ExecutionLog, check_shape
from .expr import CMP_OPS
from .model import DEFAULT_STATE_BUDGET, StateGraph, Valuation

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
    # of member s still in Z: first the members whose predecessor rows name
    # s.  A member leaves when its count reaches 0, and each leaver lowers
    # the count of its predecessors still in Z.
    start, sources = graph.predecessor_rows
    inside = _marks(seed, graph.state_count)
    left = [0] * graph.state_count
    for t in _members(seed):
        for p in sources[start[t]:start[t + 1]]:
            left[p] += 1
    work = [s for s in _members(seed) if not left[s]]
    for s in work:
        inside[s] = 0
    while work:
        t = work.pop()
        for p in sources[start[t]:start[t + 1]]:
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
    """Where a log leaves the model: the first row (1-based) no path follows
    and the check it fails: ``not-initial``, ``no-transition`` (strong),
    ``unreachable`` (weak), ``not-absorbing`` (the final AG), or
    ``not-a-model-state`` when no reachable state has the row."""

    row: int
    check: str


def reach(
    successors: Callable[[Valuation], Sequence[Valuation]], sources: Sequence[Valuation],
    max_states: int, target: Valuation | None = None,
) -> tuple[set[Valuation], int]:
    """``(found, edges)``: the valuations a breadth-first search from
    ``sources`` finds, and the sum of ``len(successors(v))`` over those it
    steps.  States are stepped in the order they are found, the sources
    first, in the order given.  From the pair ``compile_model`` gives, the
    initial valuations and the successor function, that is the order
    ``build_graph`` numbers states in, so a search that steps every state
    finds its states and edges, and raises what it raises.
    Stops once ``target`` is found; raises :class:`StateExplosionError`
    before stepping a state once more than ``max_states`` are found."""
    queue = list(sources)
    found, edges = set(queue), 0
    add, append = found.add, queue.append
    for v in queue:
        # one test per state; the target first, so that finding it stops
        # the search even past the budget
        if len(found) > max_states or target in found:
            if target in found:
                break
            raise StateExplosionError(f"state explosion: more than {max_states} reachable states")
        step = successors(v)
        edges += len(step)
        for t in step:
            if t not in found:
                add(t)
                append(t)
    return found, edges


def follow(
    successors: Callable[[Valuation], Sequence[Valuation]], initial: Collection[Valuation],
    log: ExecutionLog, mode: str = "strong", base: str = "faithful",
    max_states: int = DEFAULT_STATE_BUDGET,
) -> Witness | None:
    """``None`` when the model whose successor function and initial
    valuations (``compile_model``'s) are given admits the log, exactly when
    ``holds_initially(build_graph(model), log_property(log, mode, base))``
    holds; otherwise the first row the walk refuses.  The log's columns are
    the model's variables, in order.  Raises :class:`LogError` for an
    unknown mode or base, as ``log_property`` does, and
    :class:`StateExplosionError` when a weak search finds more than
    ``max_states`` valuations."""
    check_shape(mode, base)
    rows = log.rows
    here = rows[0]
    if here not in initial:
        return Witness(1, "not-initial")
    for k in range(2, len(rows) if base == "faithful" else len(rows) + 1):
        row = rows[k - 1]
        if mode == "strong":
            if row not in successors(here):
                return Witness(k, "no-transition")
        elif row != here and row not in successors(here):
            if row not in reach(successors, (here,), max_states, row)[0]:
                return Witness(k, "unreachable")
        here = row
    if here == rows[-1] and list(successors(here)) == [here]:
        return None
    return Witness(len(rows), "not-absorbing")

"""Verdicts computed apart from the validator, for checking the benchmark's outputs.

``Walker`` answers the question ``adjudicate`` answers -- does the model admit
the logged run? -- without building a state graph or a CTL property.  It reads
the parsed model's variables and guarded commands, evaluates them with its own
small evaluator, and walks the log rows from the initial valuation:

* strong mode: each row is one successor of the row before it;
* weak mode: each row is reachable from the row before it in zero or more steps;
* the last row must be absorbing (its only successor is itself), and in the
  ``faithful`` base the last two rows must be equal.

It shares no code with ``model``, ``checker``, ``execlog`` or ``lifecycle``;
from the package it takes only the parsed model and the expression node types.
"""

from __future__ import annotations

import operator
from collections import deque

from traceval.expr import BinOp, Name, NotOp

_BINARY = {
    "+": operator.add,
    "-": operator.sub,
    "*": operator.mul,
    "==": operator.eq,
    "!=": operator.ne,
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
}


def evaluate(expr, env: dict[str, int]):
    """Value of a well-typed expression; ``&`` and ``|`` short-circuit."""
    kind = type(expr)
    if kind is BinOp:
        if expr.op == "&":
            return evaluate(expr.left, env) and evaluate(expr.right, env)
        if expr.op == "|":
            return evaluate(expr.left, env) or evaluate(expr.right, env)
        return _BINARY[expr.op](evaluate(expr.left, env), evaluate(expr.right, env))
    if kind is NotOp:
        return not evaluate(expr.operand, env)
    if kind is Name:
        return env[expr.ident]
    return expr.value  # IntLit or BoolLit


def parse_rows(log_text: str) -> tuple[tuple[str, ...], list[tuple[int, ...]]]:
    """Header and integer rows of a CSV log."""
    lines = [line for line in log_text.splitlines() if line.strip()]
    header = tuple(cell.strip() for cell in lines[0].split(","))
    rows = [tuple(int(cell) for cell in line.split(",")) for line in lines[1:]]
    return header, rows


class Walker:
    """Successor and reachability queries on one parsed model, memoised."""

    def __init__(self, model):
        if model.init_constraint is not None:
            raise ValueError("the walker handles models without an init constraint")
        self.names = tuple(v.name for v in model.variables)
        self.bounds = tuple((v.lo, v.hi) for v in model.variables)
        self.init = tuple(v.init for v in model.variables)
        self.constants = dict(model.constants)
        position = {name: i for i, name in enumerate(self.names)}
        self.commands = [
            (cmd.guard, [(position[name], rhs) for name, rhs in cmd.updates])
            for cmd in model.commands
        ]
        self._succ: dict[tuple[int, ...], frozenset] = {}
        self._reach: dict[tuple[int, ...], frozenset] = {}

    def successors(self, state: tuple[int, ...]) -> frozenset:
        found = self._succ.get(state)
        if found is not None:
            return found
        env = dict(self.constants)
        env.update(zip(self.names, state))
        out = set()
        for guard, updates in self.commands:
            if not evaluate(guard, env):
                continue
            nxt = list(state)
            for i, rhs in updates:
                value = evaluate(rhs, env)
                lo, hi = self.bounds[i]
                if not lo <= value <= hi:
                    raise ValueError(f"update leaves the domain of {self.names[i]}")
                nxt[i] = value
            out.add(tuple(nxt))
        found = frozenset(out) if out else frozenset([state])
        self._succ[state] = found
        return found

    def reachable(self, state: tuple[int, ...]) -> frozenset:
        """States reachable from ``state`` in zero or more steps."""
        found = self._reach.get(state)
        if found is None:
            seen = {state}
            todo = deque([state])
            while todo:
                for nxt in self.successors(todo.popleft()):
                    if nxt not in seen:
                        seen.add(nxt)
                        todo.append(nxt)
            found = self._reach[state] = frozenset(seen)
        return found

    def admits(self, log_text: str, mode: str, base: str = "faithful") -> bool:
        """True when the model admits the logged run, as ``adjudicate`` decides it."""
        header, rows = parse_rows(log_text)
        if header != self.names or len(rows) < 2 or rows[0] != self.init:
            return False
        if base == "faithful":
            if rows[-2] != rows[-1]:
                return False
            chain = rows[:-1]
        else:
            chain = rows
        for row, nxt in zip(chain, chain[1:]):
            step = self.successors(row) if mode == "strong" else self.reachable(row)
            if nxt not in step:
                return False
        return self.successors(rows[-1]) == {rows[-1]}

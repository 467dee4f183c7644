"""Reference evaluator used against the compiled one in ``traceval``.

``eval_expr`` walks the expression tree at every call and checks operand
types dynamically; ``step`` rebuilds its environment dicts per state,
interprets every guard and update with it and names the command in every
error it raises.  ``reachable_graph`` is a plain breadth-first search over
``step``.  None of the compiled code is reused.
"""

from __future__ import annotations

import itertools
from collections import deque
from typing import Mapping

from traceval.errors import EvalError, ModelError
from traceval.expr import (
    ARITH_OPS,
    CMP_OPS,
    INT_MAX,
    INT_MIN,
    BinOp,
    BoolLit,
    Expr,
    IntLit,
    Name,
    NotOp,
)
from traceval.model import SystemModel, Valuation


def eval_expr(
    expr: Expr,
    values: Mapping[str, int],
    consts: Mapping[str, int] | None = None,
) -> int | bool:
    """Evaluate ``expr`` under a valuation and an optional constant map.

    ``values`` is consulted before ``consts``; the two namespaces are
    disjoint in well-formed models.  Raises :class:`EvalError` on unknown
    identifiers, operand type mismatches or 64-bit overflow.
    """
    if isinstance(expr, IntLit):
        return expr.value
    if isinstance(expr, BoolLit):
        return expr.value
    if isinstance(expr, Name):
        if expr.ident in values:
            return values[expr.ident]
        if consts and expr.ident in consts:
            return consts[expr.ident]
        raise EvalError(f"unknown identifier '{expr.ident}'")
    if isinstance(expr, NotOp):
        v = eval_expr(expr.operand, values, consts)
        if not isinstance(v, bool):
            raise EvalError("operand of '!' must be boolean")
        return not v
    if isinstance(expr, BinOp):
        a = eval_expr(expr.left, values, consts)
        b = eval_expr(expr.right, values, consts)
        op = expr.op
        if op in ARITH_OPS:
            if isinstance(a, bool) or isinstance(b, bool):
                raise EvalError(f"operands of '{op}' must be integers")
            r = a + b if op == "+" else a - b if op == "-" else a * b
            if not INT_MIN <= r <= INT_MAX:
                raise EvalError(f"arithmetic overflow in '{op}': result {r}")
            return r
        if op in CMP_OPS:
            if isinstance(a, bool) or isinstance(b, bool):
                raise EvalError(f"operands of '{op}' must be integers")
            return CMP_OPS[op](a, b)
        if op == "&":
            if not (isinstance(a, bool) and isinstance(b, bool)):
                raise EvalError("operands of '&' must be boolean")
            return a and b
        if op == "|":
            if not (isinstance(a, bool) and isinstance(b, bool)):
                raise EvalError("operands of '|' must be boolean")
            return a or b
        raise EvalError(f"unknown operator '{op}'")
    raise EvalError(f"not an expression: {expr!r}")


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
        try:
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
        except EvalError as exc:
            raise ModelError(f"{cmd.describe(i)}: {exc}") from None
        out.add(tuple(nxt))
    if not out:
        return [v]
    return sorted(out)


def initial_valuations(model: SystemModel) -> list[Valuation]:
    """The declared init vector plus every domain valuation satisfying the
    init constraint, sorted."""
    inits = {tuple(v.init for v in model.variables)}
    if model.init_constraint is not None:
        ranges = [range(v.lo, v.hi + 1) for v in model.variables]
        for cand in itertools.product(*ranges):
            allowed = eval_expr(model.init_constraint, dict(zip(model.var_names, cand)), model.constants)
            if not isinstance(allowed, bool):
                raise ModelError("init constraint is not boolean")
            if allowed:
                inits.add(cand)
    return sorted(inits)


def reachable_graph(model: SystemModel) -> tuple[list[Valuation], list[int], list[list[int]]]:
    """``(states, initial, successor rows)`` by breadth-first search over
    :func:`step`, numbering states in discovery order from the sorted
    initial valuations."""
    inits = initial_valuations(model)
    index = {v: i for i, v in enumerate(inits)}
    states = list(inits)
    rows: list[list[int]] = []
    queue = deque(inits)
    while queue:
        row = []
        for nxt in step(model, queue.popleft()):
            if nxt not in index:
                index[nxt] = len(states)
                states.append(nxt)
                queue.append(nxt)
            row.append(index[nxt])
        rows.append(sorted(set(row)))
    return states, list(range(len(inits))), rows

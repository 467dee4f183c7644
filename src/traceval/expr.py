"""Integer/boolean expression trees used in guards, updates and constraints.

Expressions are plain frozen dataclasses.  Evaluation is dynamically typed:
arithmetic (``+ - *``) works on integers, comparisons produce booleans and
``& | !`` combine booleans.  Arithmetic is checked against the signed 64-bit
range so results stay machine-representable.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Mapping, Union

from .errors import EvalError

INT_MIN = -(2**63)
INT_MAX = 2**63 - 1

ARITH_OPS = ("+", "-", "*")
# Comparator symbols and the integer comparison each one means.
CMP_OPS = {
    "==": operator.eq,
    "!=": operator.ne,
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
}
BOOL_OPS = ("&", "|")


@dataclass(frozen=True)
class IntLit:
    value: int


@dataclass(frozen=True)
class BoolLit:
    value: bool


@dataclass(frozen=True)
class Name:
    ident: str


@dataclass(frozen=True)
class BinOp:
    op: str
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True)
class NotOp:
    operand: "Expr"


Expr = Union[IntLit, BoolLit, Name, BinOp, NotOp]

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


def infer_type(expr: Expr) -> str:
    """Return ``'int'`` or ``'bool'`` for a well-typed expression.

    Variables and constants are always integers in this language.
    """
    if isinstance(expr, (IntLit, Name)):
        return "int"
    if isinstance(expr, BoolLit):
        return "bool"
    if isinstance(expr, NotOp):
        if infer_type(expr.operand) != "bool":
            raise EvalError("operand of '!' must be boolean")
        return "bool"
    if isinstance(expr, BinOp):
        lt = infer_type(expr.left)
        rt = infer_type(expr.right)
        if expr.op in ARITH_OPS:
            if lt != "int" or rt != "int":
                raise EvalError(f"operands of '{expr.op}' must be integers")
            return "int"
        if expr.op in CMP_OPS:
            if lt != "int" or rt != "int":
                raise EvalError(f"operands of '{expr.op}' must be integers")
            return "bool"
        if expr.op in BOOL_OPS:
            if lt != "bool" or rt != "bool":
                raise EvalError(f"operands of '{expr.op}' must be boolean")
            return "bool"
        raise EvalError(f"unknown operator '{expr.op}'")
    raise EvalError(f"not an expression: {expr!r}")


def expr_names(expr: Expr) -> frozenset[str]:
    """All identifiers referenced by ``expr``."""
    out: set[str] = set()
    stack = [expr]
    while stack:
        e = stack.pop()
        if isinstance(e, Name):
            out.add(e.ident)
        elif isinstance(e, BinOp):
            stack.append(e.left)
            stack.append(e.right)
        elif isinstance(e, NotOp):
            stack.append(e.operand)
    return frozenset(out)


# Printing: precedence levels, loosest first.  Right operands of equal
# precedence are parenthesized so printed text re-parses to the same tree.
_PREC_LEAF = 9
_PREC = {"|": 1, "&": 2, "+": 5, "-": 5, "*": 6}
_PREC.update({op: 4 for op in CMP_OPS})


def _prec(expr: Expr) -> int:
    if isinstance(expr, BinOp):
        return _PREC[expr.op]
    if isinstance(expr, NotOp):
        return 3
    return _PREC_LEAF


def print_expr(expr: Expr) -> str:
    """Render an expression as canonical text (re-parses to the same tree)."""
    if isinstance(expr, IntLit):
        return str(expr.value)
    if isinstance(expr, BoolLit):
        return "true" if expr.value else "false"
    if isinstance(expr, Name):
        return expr.ident
    if isinstance(expr, NotOp):
        s = print_expr(expr.operand)
        if _prec(expr.operand) < 3:
            s = f"({s})"
        return f"!{s}"
    if isinstance(expr, BinOp):
        p = _PREC[expr.op]
        ls = print_expr(expr.left)
        if _prec(expr.left) < p:
            ls = f"({ls})"
        rs = print_expr(expr.right)
        if _prec(expr.right) <= p:
            rs = f"({rs})"
        if expr.op in ("&", "|"):
            return f"{ls} {expr.op} {rs}"
        return f"{ls}{expr.op}{rs}"
    raise EvalError(f"not an expression: {expr!r}")

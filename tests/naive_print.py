"""Reference printers used against ``traceval.ctl.print_formula`` and
``traceval.expr.print_expr``.

``print_formula`` is the formula printer as it was before it wrote into one
buffer: it memoises the text of every subformula by node identity and
builds each node's text from its children's, so it holds O(depth²)
characters on a nested property.  ``print_expr`` is the expression printer
as it was before both printers shared one explicit stack: it recurses once
per nesting level.  The precedence rules are their own copies; only the
node classes, ``children`` and ``TEMPORAL_NAMES`` come from ``traceval``.
"""

from __future__ import annotations

from traceval.ctl import (
    TEMPORAL_NAMES,
    And,
    Atom,
    CtlFormula,
    FalseF,
    Not,
    Or,
    TrueF,
    children,
)
from traceval.errors import EvalError
from traceval.expr import BinOp, BoolLit, Expr, IntLit, Name, NotOp


def _prec(f: CtlFormula) -> int:
    # Or=1 < And=2 < Not=3 < atoms/temporals (temporals carry their own parens).
    if isinstance(f, Or):
        return 1
    if isinstance(f, And):
        return 2
    if isinstance(f, Not):
        return 3
    return 9


def print_formula(f: CtlFormula) -> str:
    """Canonical text; ``parse_formula(print_formula(f))`` equals ``f``.

    Iterative so arbitrarily deep generated properties print without
    hitting the interpreter recursion limit.
    """
    done: dict[int, str] = {}
    stack = [f]
    while stack:
        node = stack[-1]
        if id(node) in done:
            stack.pop()
            continue
        kids = children(node)
        missing = [k for k in kids if id(k) not in done]
        if missing:
            stack.extend(missing)
            continue
        stack.pop()
        done[id(node)] = _fmt(node, done)
    return done[id(f)]


def _fmt(node: CtlFormula, done: dict[int, str]) -> str:
    if isinstance(node, TrueF):
        return "true"
    if isinstance(node, FalseF):
        return "false"
    if isinstance(node, Atom):
        return f"{node.var}{node.op}{node.value}"
    if isinstance(node, Not):
        s = done[id(node.child)]
        if _prec(node.child) < 3:
            s = f"({s})"
        return f"!{s}"
    if isinstance(node, (And, Or)):
        p = _prec(node)
        sym = "&" if isinstance(node, And) else "|"
        ls = done[id(node.left)]
        if _prec(node.left) < p:
            ls = f"({ls})"
        rs = done[id(node.right)]
        if _prec(node.right) <= p:
            rs = f"({rs})"
        return f"{ls} {sym} {rs}"
    return f"{TEMPORAL_NAMES[type(node)]}({done[id(node.child)]})"


# Expression printing: precedence levels, loosest first.  Right operands of
# equal precedence are parenthesized so printed text re-parses to the same
# tree.
_PREC_LEAF = 9
BIN_PREC = {"|": 1, "&": 2, "+": 5, "-": 5, "*": 6}
BIN_PREC.update({op: 4 for op in ("==", "!=", "<", "<=", ">", ">=")})


def _expr_prec(expr: Expr) -> int:
    if isinstance(expr, BinOp):
        return BIN_PREC[expr.op]
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
        if _expr_prec(expr.operand) < 3:
            s = f"({s})"
        return f"!{s}"
    if isinstance(expr, BinOp):
        p = BIN_PREC[expr.op]
        ls = print_expr(expr.left)
        if _expr_prec(expr.left) < p:
            ls = f"({ls})"
        rs = print_expr(expr.right)
        if _expr_prec(expr.right) <= p:
            rs = f"({rs})"
        if expr.op in ("&", "|"):
            return f"{ls} {expr.op} {rs}"
        return f"{ls}{expr.op}{rs}"
    raise EvalError(f"not an expression: {expr!r}")

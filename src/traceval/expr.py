"""Integer/boolean expression trees used in guards, updates and constraints.

Expressions are plain frozen dataclasses.  Typing is static: arithmetic
(``+ - *``) works on integers, comparisons produce booleans and ``& | !``
combine booleans, and a mismatch is found without evaluating anything.
``compile_parts`` type-checks a tree and turns it into functions of a
valuation tuple in one pass, so a model's init constraint, guards and
updates are walked once, not at every state.  It hands back what is data
as data: the ``var==const`` pins of a top-level ``&`` chain, apart from
the function of the rest, the value of a literal, and the slot and offset
of a shift such as ``x + 1``.  It keeps what each node compiled
to in a memo keyed by the node's ``id``, which its caller passes to every
expression of one model, so a node shared by several expressions, as
``lang.parse_model`` shares equal subexpressions, is compiled once.
Arithmetic is checked against the signed 64-bit range so results stay
machine-representable.

``print_tree`` is the one printer, for expressions here and for CTL
formulas in ``ctl``: an explicit stack, with each language's layout
naming the precedence of a node and the bounds its operands must meet.
``print_expr`` is it with this module's layout.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from operator import itemgetter
from typing import Callable, Mapping, Union

from .errors import EvalError

INT_MIN = -(2**63)
INT_MAX = 2**63 - 1
_INT_DIGITS = len(str(INT_MAX))

# Arithmetic and comparator symbols and the integer operation each one means.
ARITH_OPS = {"+": operator.add, "-": operator.sub, "*": operator.mul}
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

# The type rules: the type of each kind of leaf, and the operand type each
# binary operator takes and the type it returns.  '!' takes and returns a
# boolean.
_LEAF_TYPES = {IntLit: "int", Name: "int", BoolLit: "bool"}
_SIGNATURES = {op: ("int", "int") for op in ARITH_OPS}
_SIGNATURES.update({op: ("int", "bool") for op in CMP_OPS})
_SIGNATURES.update({op: ("bool", "bool") for op in BOOL_OPS})
_PLURAL = {"int": "integers", "bool": "boolean"}


def _binary_type(op: str, left: str, right: str) -> str:
    if op not in _SIGNATURES:
        raise EvalError(f"unknown operator '{op}'")
    want, result = _SIGNATURES[op]
    if left != want or right != want:
        raise EvalError(f"operands of '{op}' must be {_PLURAL[want]}")
    return result


def _not_type(operand: str) -> str:
    if operand != "bool":
        raise EvalError("operand of '!' must be boolean")
    return "bool"


def _leaf_type(expr) -> str:
    kind = _LEAF_TYPES.get(type(expr))
    if kind is None:
        raise EvalError(f"not an expression: {expr!r}")
    return kind


def infer_type(expr: Expr) -> str:
    """Return ``'int'`` or ``'bool'`` for a well-typed expression.

    Variables and constants are always integers in this language.  Unlike
    :func:`compile_parts`, this recurses once per nesting level.
    """
    kind = _LEAF_TYPES.get(type(expr))
    if kind is not None:
        return kind
    if isinstance(expr, BinOp):
        return _binary_type(expr.op, infer_type(expr.left), infer_type(expr.right))
    if isinstance(expr, NotOp):
        return _not_type(infer_type(expr.operand))
    return _leaf_type(expr)  # raises: not an expression


def compile_parts(
    expr: Expr,
    slots: Mapping[str, int],
    consts: Mapping[str, int],
    memo: dict,
) -> tuple[
    str, tuple[tuple[int, int], ...], Callable | None, bool, int | bool | None, tuple[int, int] | None
]:
    """Type-check ``expr`` and compile it, keeping what is data as data.

    ``slots`` maps each variable to its slot in the valuation tuple; any
    other identifier is looked up in ``consts``.
    ``memo`` maps the ``id`` of each node compiled so far to what it
    compiled to: pass one dict to every call for the expressions of one
    model, so that a node they share is compiled once.  The caller keeps
    the expressions alive while the memo is in use, so no ``id`` in it is
    reused.
    Returns ``(type, pins, rest, safe, value, shift)``:

    - ``pins``: the ``(slot, value)`` pairs of the ``var==const`` (or
      ``const==var``) conjuncts of the top-level ``&`` chain.  A pin under
      ``|`` or ``!`` is not a pin.
    - ``rest``: the function of a valuation that the rest of the
      expression computes; ``None`` when nothing is left, or when the
      expression is a literal or a constant.
    - ``safe``: ``rest`` cannot raise.
    - ``value``: the value of a literal or a constant, else ``None``.
    - ``shift``: ``(slot, offset)`` when the expression is ``v + c``,
      ``v - c`` or ``c + v``, for a variable ``v`` and a literal or a
      constant ``c``: it computes ``v[slot] + offset`` where that lies in
      the 64-bit range, and ``rest`` raises its overflow where it does
      not.  Else ``None``.

    A boolean expression holds exactly where every pin holds and ``rest``
    is true.  Unknown identifiers and operand type mismatches raise
    :class:`EvalError` here; ``rest`` can raise it only on 64-bit overflow.
    """
    kind, fn, slot, value, safe, pins = _compile(expr, slots, consts, memo)
    if slot is not None:
        fn = itemgetter(slot)
    return kind, tuple(_pin_list(pins)) if pins else (), fn, safe, value, _shift(expr, memo)


def _shift(expr: Expr, memo: Mapping[int, tuple]):
    """``(slot, offset)`` for a well-typed ``v + c``, ``v - c`` or ``c + v``,
    else ``None``; ``c - v`` is no shift.  ``expr`` is compiled into
    ``memo``, where only a variable has a slot, and only a literal or a
    constant a value."""
    if type(expr) is not BinOp or expr.op not in ("+", "-"):
        return None
    _, _, a, x, _, _ = memo[id(expr.left)]
    _, _, b, y, _, _ = memo[id(expr.right)]
    if a is not None and y is not None:
        return a, y if expr.op == "+" else -y
    if expr.op == "+" and x is not None and b is not None:
        return b, x
    return None


def _compile(expr: Expr, slots: Mapping[str, int], consts: Mapping[str, int], memo: dict):
    """What ``expr`` compiles to, with every node it holds in ``memo``.

    One post-order walk, left operand first: the order the operands are
    evaluated in.  A node popped again after its operands is compiled from
    their entries; a node found in ``memo`` when it is popped is done, so
    a node shared within or across expressions is compiled once and its
    operands are not pushed again.  A node that fails to compile is not
    memoised, so it fails again wherever it recurs."""
    stack = [expr]
    while stack:
        e = stack.pop()
        if e is _OPERANDS_DONE:
            e = stack.pop()
            if type(e) is BinOp:
                memo[id(e)] = _compile_binary(e, memo[id(e.left)], memo[id(e.right)])
            else:
                memo[id(e)] = _compile_not(memo[id(e.operand)])
        elif id(e) not in memo:
            kind = type(e)
            if kind is BinOp:
                stack += (e, _OPERANDS_DONE, e.right, e.left)
            elif kind is NotOp:
                stack += (e, _OPERANDS_DONE, e.operand)
            else:
                memo[id(e)] = _compile_leaf(e, slots, consts)
    return memo[id(expr)]


_OPERANDS_DONE = object()  # on _compile's stack, above a node whose operands are compiled


# A node compiles to (type, fn, slot, value, safe, pins).  A variable
# leaves fn unset and gives its slot, a literal or a constant its value, so
# that comparing a variable with a constant reads the slot directly.  An
# equality between a variable and a constant gives its (slot, value) pair
# as a pin, and a conjunction joins its operands' pins: the node holds
# where every pin holds and fn, the rest, is true (fn unset: no rest).
# ``safe`` means fn cannot raise: the rest holds no arithmetic.  Pins never
# raise, so evaluating them first changes no result and no error.
# A compiled node may be shared, so it is never changed once built: pins
# are a tree, empty ``()``, one ``(slot, value)`` pin or a pair of two
# non-empty trees, and ``_pin_list`` flattens one only where its pins are
# used.


def _compile_leaf(e, slots: Mapping[str, int], consts: Mapping[str, int]):
    kind = _leaf_type(e)
    if not isinstance(e, Name):
        return kind, None, None, e.value, True, ()
    if e.ident in slots:
        return kind, None, slots[e.ident], None, True, ()
    if e.ident in consts:
        return kind, None, None, consts[e.ident], True, ()
    raise EvalError(f"unknown identifier '{e.ident}'")


def _compile_not(operand):
    kind = _not_type(operand[0])
    a = _function(operand)
    return kind, lambda v: not a(v), None, None, operand[4], ()


def _compile_binary(e: BinOp, left, right):
    kind = _binary_type(e.op, left[0], right[0])
    op = e.op
    safe = left[4] and right[4]
    if op == "==":
        for var, const in ((left, right), (right, left)):
            if var[2] is not None and const[3] is not None:
                return kind, None, None, None, True, (var[2], const[3])
    if op == "&":
        return _compile_and(kind, left, right)
    slot, value = left[2], right[3]
    if op in CMP_OPS and slot is not None and value is not None:
        f = CMP_OPS[op]
        return kind, lambda v: f(v[slot], value), None, None, True, ()
    a, b = _function(left), _function(right)
    if op in CMP_OPS:
        f = CMP_OPS[op]
        return kind, lambda v: f(a(v), b(v)), None, None, safe, ()
    if op in ARITH_OPS:
        return kind, _arith(op, a, b), None, None, False, ()
    # Both operands of '|' are always evaluated, so that an overflow on the
    # right raises whatever the left gives; when the right cannot raise,
    # skipping it changes nothing.
    fn = (lambda v: a(v) or b(v)) if right[4] else (lambda v: a(v) | b(v))
    return kind, fn, None, None, safe, ()


def _compile_and(kind, left, right):
    # Joining two trees costs one pair, so that a long chain is linear.
    pins = (left[5], right[5]) if left[5] and right[5] else left[5] or right[5]
    a, b = _rest(left), _rest(right)
    if a is None or b is None:
        fn = a or b
    elif right[4]:
        fn = lambda v: a(v) and b(v)
    else:
        # the right operand is evaluated even when the left one is false
        fn = lambda v: a(v) & b(v)
    return kind, fn, None, None, left[4] and right[4], pins


def _pin_list(tree) -> list[tuple[int, int]]:
    """The pins of a non-empty pin tree, left to right, with each shared
    pair of trees walked once."""
    pins, pairs, stack = [], set(), [tree]
    while stack:
        t = stack.pop()
        if type(t[0]) is int:
            pins.append(t)
        elif id(t) not in pairs:
            pairs.add(id(t))
            stack += (t[1], t[0])
    return pins


def _rest(compiled):
    """The function of what a node computes besides its pins, or ``None``."""
    return compiled[1] if compiled[5] else _function(compiled)


def conjunction(pins, rest, safe: bool) -> Callable[[tuple[int, ...]], bool] | None:
    """The function of a valuation true where every ``(slot, value)`` pin
    holds and ``rest``, unless it is ``None``, is true; ``None`` when there
    are neither.  ``safe`` means ``rest`` cannot raise; when it can, it is
    evaluated even where a pin fails, so that it raises there too."""
    if not pins:
        return rest
    slots, values = zip(*pins)
    get = itemgetter(*slots)
    if len(pins) == 1:
        values = values[0]  # one slot: itemgetter returns the value itself
    if rest is None:
        return lambda v: get(v) == values
    if safe:
        return lambda v: get(v) == values and rest(v)
    return lambda v: (get(v) == values) & rest(v)


def _function(compiled):
    """The function of a valuation that a compiled node computes."""
    _, fn, slot, value, safe, pins = compiled
    if pins:
        return conjunction(_pin_list(pins), fn, safe)
    if fn is not None:
        return fn
    if slot is not None:
        return itemgetter(slot)
    return lambda v: value


def _arith(op: str, a, b):
    f = ARITH_OPS[op]

    def fn(v):
        r = f(a(v), b(v))
        if INT_MIN <= r <= INT_MAX:
            return r
        raise EvalError(f"arithmetic overflow in '{op}': result {r}")

    return fn


def int_literal(text: str) -> int | None:
    """The value of the decimal literal ``text`` (``-?[0-9]+``), or ``None``
    when it lies outside ``INT_MIN..INT_MAX``.  Leading zeros are dropped
    and the length checked before ``int()``, which refuses strings of more
    than 4300 digits."""
    if len(text) < _INT_DIGITS:
        return int(text)  # always fits
    digits = text.lstrip("-").lstrip("0")
    if len(digits) > _INT_DIGITS:
        return None
    value = int(digits or "0")
    if text.startswith("-"):
        value = -value
    return value if INT_MIN <= value <= INT_MAX else None


# Printing: precedence levels, loosest first.  '!' binds at NOT_PREC, and
# a leaf, or anything that carries its own parentheses, at ATOM_PREC.
BIN_PREC = {"|": 1, "&": 2, "+": 5, "-": 5, "*": 6}
BIN_PREC.update({op: 4 for op in CMP_OPS})
NOT_PREC = 3
ATOM_PREC = 9


def print_tree(root, layout: Callable) -> str:
    """Print a tree with one explicit stack, so no depth is too deep.

    ``layout(node)`` returns ``(precedence, pieces)``; a piece is literal
    text or a ``(child, bound)`` pair, and a child whose precedence is below
    its bound prints in parentheses.  A binary operator of precedence ``p``
    bounds its left operand at ``p`` and its right at ``p + 1``, so printed
    text re-parses to the same tree.
    """
    out: list[str] = []
    stack: list = [(root, 0)]
    while stack:
        piece = stack.pop()
        if type(piece) is str:
            out.append(piece)
            continue
        node, bound = piece
        prec, pieces = layout(node)
        if prec < bound:
            pieces = ("(", *pieces, ")")
        stack.extend(reversed(pieces))
    return "".join(out)


def _layout(e: Expr):
    kind = type(e)
    if kind is BinOp:
        p = BIN_PREC[e.op]
        op = f" {e.op} " if e.op in BOOL_OPS else e.op
        return p, ((e.left, p), op, (e.right, p + 1))
    if kind is NotOp:
        return NOT_PREC, ("!", (e.operand, NOT_PREC))
    if kind is IntLit:
        return ATOM_PREC, (str(e.value),)
    if kind is BoolLit:
        return ATOM_PREC, ("true" if e.value else "false",)
    if kind is Name:
        return ATOM_PREC, (e.ident,)
    raise EvalError(f"not an expression: {e!r}")


def print_expr(expr: Expr) -> str:
    """Render an expression as canonical text (re-parses to the same tree)."""
    return print_tree(expr, _layout)

"""CTL formula trees and the canonical printer.

The fragment is: ``true``/``false``, integer atoms ``var op value``,
``!``/``&``/``|`` and the temporal operators EX, EF, EG, AX, AF, AG.
Temporal operators always print with parentheses (``EX(...)``); ``&``
binds tighter than ``|`` and both bind looser than ``!`` and temporals.
The printer takes time and memory linear in the text it prints.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union


@dataclass(frozen=True)
class TrueF:
    pass


@dataclass(frozen=True)
class FalseF:
    pass


@dataclass(frozen=True)
class Atom:
    var: str
    op: str
    value: int


@dataclass(frozen=True)
class Not:
    child: "CtlFormula"


@dataclass(frozen=True)
class And:
    left: "CtlFormula"
    right: "CtlFormula"


@dataclass(frozen=True)
class Or:
    left: "CtlFormula"
    right: "CtlFormula"


@dataclass(frozen=True)
class EX:
    child: "CtlFormula"


@dataclass(frozen=True)
class EF:
    child: "CtlFormula"


@dataclass(frozen=True)
class EG:
    child: "CtlFormula"


@dataclass(frozen=True)
class AX:
    child: "CtlFormula"


@dataclass(frozen=True)
class AF:
    child: "CtlFormula"


@dataclass(frozen=True)
class AG:
    child: "CtlFormula"


CtlFormula = Union[TrueF, FalseF, Atom, Not, And, Or, EX, EF, EG, AX, AF, AG]

TEMPORAL_NAMES = {EX: "EX", EF: "EF", EG: "EG", AX: "AX", AF: "AF", AG: "AG"}
_UNARY = (Not, EX, EF, EG, AX, AF, AG)


def children(f: CtlFormula) -> tuple[CtlFormula, ...]:
    if isinstance(f, (And, Or)):
        return (f.left, f.right)
    if isinstance(f, _UNARY):
        return (f.child,)
    return ()


def conjuncts(f: CtlFormula) -> list[CtlFormula]:
    """Flatten a left-associated top-level conjunction into its members."""
    out: list[CtlFormula] = []
    while isinstance(f, And):
        out.append(f.right)
        f = f.left
    out.append(f)
    out.reverse()
    return out


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

    One explicit stack of nodes and literal pieces, appended to one list and
    joined once: time and memory are linear in the text, and arbitrarily
    deep generated properties print without hitting the recursion limit.
    """
    out: list[str] = []
    stack: list[CtlFormula | str] = [f]
    while stack:
        node = stack.pop()
        if isinstance(node, str):
            out.append(node)
        elif isinstance(node, TrueF):
            out.append("true")
        elif isinstance(node, FalseF):
            out.append("false")
        elif isinstance(node, Atom):
            out.append(f"{node.var}{node.op}{node.value}")
        elif isinstance(node, Not):
            if _prec(node.child) < 3:
                stack += (")", node.child, "!(")
            else:
                stack += (node.child, "!")
        elif isinstance(node, (And, Or)):
            p = _prec(node)
            # pushed in reverse: left, operator, right
            if _prec(node.right) <= p:
                stack += (")", node.right, "(")
            else:
                stack.append(node.right)
            stack.append(" & " if isinstance(node, And) else " | ")
            if _prec(node.left) < p:
                stack += (")", node.left, "(")
            else:
                stack.append(node.left)
        else:
            stack += (")", node.child, TEMPORAL_NAMES[type(node)] + "(")
    return "".join(out)

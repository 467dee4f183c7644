"""CTL formula trees and the canonical printer.

The fragment is: ``true``/``false``, integer atoms ``var op value``,
``!``/``&``/``|`` and the temporal operators EX, EF, EG, AX, AF, AG.
Temporal operators always print with parentheses (``EX(...)``); ``&``
binds tighter than ``|`` and both bind looser than ``!`` and temporals.
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

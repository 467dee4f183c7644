"""CTL formula trees and the canonical printer.

The fragment is: ``true``/``false``, integer atoms ``var op value``,
``!``/``&``/``|`` and the temporal operators EX, EF, EG, AX, AF, AG.
Temporal operators always print with parentheses (``EX(...)``); ``&``
binds tighter than ``|`` and both bind looser than ``!`` and temporals.
``print_formula`` is ``expr.print_tree`` with this language's layout, the
one printer expressions use too: it reads the precedence of ``&`` and
``|`` from ``expr.BIN_PREC``, never recurses, and takes time and memory
linear in the text it prints.  The node classes share ``expr.Node``'s
equality, hashing and ``repr``, which never recurse either.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

from .errors import EvalError
from .expr import ATOM_PREC, BIN_PREC, NOT_PREC, Node, print_tree


@dataclass(frozen=True, eq=False, repr=False)
class TrueF(Node):
    pass


@dataclass(frozen=True, eq=False, repr=False)
class FalseF(Node):
    pass


@dataclass(frozen=True, eq=False, repr=False)
class Atom(Node):
    var: str
    op: str
    value: int


@dataclass(frozen=True, eq=False, repr=False)
class Not(Node):
    child: "CtlFormula"


@dataclass(frozen=True, eq=False, repr=False)
class And(Node):
    left: "CtlFormula"
    right: "CtlFormula"


@dataclass(frozen=True, eq=False, repr=False)
class Or(Node):
    left: "CtlFormula"
    right: "CtlFormula"


@dataclass(frozen=True, eq=False, repr=False)
class EX(Node):
    child: "CtlFormula"


@dataclass(frozen=True, eq=False, repr=False)
class EF(Node):
    child: "CtlFormula"


@dataclass(frozen=True, eq=False, repr=False)
class EG(Node):
    child: "CtlFormula"


@dataclass(frozen=True, eq=False, repr=False)
class AX(Node):
    child: "CtlFormula"


@dataclass(frozen=True, eq=False, repr=False)
class AF(Node):
    child: "CtlFormula"


@dataclass(frozen=True, eq=False, repr=False)
class AG(Node):
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


_AND, _OR = BIN_PREC["&"], BIN_PREC["|"]
_OPENING = {kind: name + "(" for kind, name in TEMPORAL_NAMES.items()}


def _layout(f: CtlFormula):
    kind = type(f)
    if kind is And:
        return _AND, ((f.left, _AND), " & ", (f.right, _AND + 1))
    if kind is Atom:
        return ATOM_PREC, (f"{f.var}{f.op}{f.value}",)
    if kind in _OPENING:
        return ATOM_PREC, (_OPENING[kind], (f.child, 0), ")")
    if kind is Or:
        return _OR, ((f.left, _OR), " | ", (f.right, _OR + 1))
    if kind is Not:
        return NOT_PREC, ("!", (f.child, NOT_PREC))
    if kind is TrueF or kind is FalseF:
        return ATOM_PREC, ("true" if kind is TrueF else "false",)
    raise EvalError(f"not a CTL formula: {f!r}")


def print_formula(f: CtlFormula) -> str:
    """Canonical text; ``parse_formula(print_formula(f))`` equals ``f``."""
    return print_tree(f, _layout)

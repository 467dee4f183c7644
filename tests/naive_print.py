"""Reference printer used against ``traceval.ctl.print_formula``.

The printer as it was before it wrote into one buffer: it memoises the text
of every subformula by node identity and builds each node's text from its
children's, so it holds O(depth²) characters on a nested property.  The
precedence rules are its own copy; only the node classes, ``children`` and
``TEMPORAL_NAMES`` come from ``traceval.ctl``.
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

"""Reference equality and ``repr`` for ``expr`` and ``ctl`` tree nodes.

The meaning the nodes had as plain frozen dataclasses, written as one
recursive call per level: a node is its class and its field values, so
two trees are equal exactly when their ``frozen`` forms are, and it
prints as ``represented`` gives it.
"""

from __future__ import annotations

from dataclasses import fields, is_dataclass


def frozen(node):
    """The nested tuple of ``node``'s class and field values."""
    if not is_dataclass(node):
        return node
    return (type(node), *(frozen(getattr(node, f.name)) for f in fields(node)))


def rebuilt(node):
    """A copy of ``node`` that shares no node with it."""
    if not is_dataclass(node):
        return node
    return type(node)(*(rebuilt(getattr(node, f.name)) for f in fields(node)))


def represented(node) -> str:
    """``repr(node)`` as a plain dataclass gives it: ``Class(field=value, ...)``."""
    if not is_dataclass(node):
        return repr(node)
    shown = (f"{f.name}={represented(getattr(node, f.name))}" for f in fields(node) if f.repr)
    return f"{type(node).__qualname__}({', '.join(shown)})"

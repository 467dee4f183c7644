"""Execution logs and their compilation into CTL properties.

A log is a CSV table: a header of variable names, then one row of signed
64-bit integer values per observed state.  The log compiles into two
property shapes:

* strong -- consecutive rows must be connected by single transitions (EX)
  and the final row must hold forever (AG);
* weak -- rows must be reachable in order (EF), same final AG.

Both come in two base-case flavours.  The ``faithful`` base conjoins the
second-to-last row with ``AG`` of the last row at the same state, so it is
satisfiable only when the log repeats its final row; the ``corrected``
base anchors ``AG`` on the last row alone and chains every earlier row
through the temporal operator.  ``faithful`` is the default.

The validator decides these properties with ``checker.follow``, a walk
through the rows, without building them; the formulas serve
``gen-property``, ``check`` and the walk's tests.
"""

from __future__ import annotations

import re
import warnings
from dataclasses import dataclass

from . import ctl
from .errors import LogError
from .expr import INT_MAX, INT_MIN, int_literal

_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")
_INT_RE = re.compile(r"-?\d+\Z")

MODES = ("strong", "weak")
BASES = ("faithful", "corrected")


class UnsatisfiableLogWarning(UserWarning):
    """Faithful-mode property cannot hold: last two rows differ."""


@dataclass(frozen=True)
class ExecutionLog:
    """Header of m variable names plus n rows of m integers, n >= 2."""

    variables: tuple[str, ...]
    rows: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if not self.variables:
            raise LogError("log has no columns")
        if len(set(self.variables)) != len(self.variables):
            raise LogError("duplicate header name")
        if len(self.rows) < 2:
            raise LogError("fewer than 2 rows")
        m = len(self.variables)
        for i, row in enumerate(self.rows, start=1):
            if len(row) != m:
                raise LogError(f"row {i} has {len(row)} cells, expected {m}")

    @property
    def n(self) -> int:
        return len(self.rows)


def parse_log(text: str) -> ExecutionLog:
    """Parse CSV log text (LF or CRLF, no quoting)."""
    lines = text.split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    lines = [line.rstrip("\r") for line in lines]
    if not lines:
        raise LogError("empty log")
    header = [cell.strip() for cell in lines[0].split(",")]
    for cell in header:
        if not _IDENT_RE.match(cell):
            raise LogError(f"invalid variable name {cell!r} in header")
    m = len(header)
    rows: list[tuple[int, ...]] = []
    for line_no, line in enumerate(lines[1:], start=2):
        cells = [cell.strip() for cell in line.split(",")]
        if len(cells) != m:
            raise LogError(f"ragged row at line {line_no}: {len(cells)} cells, expected {m}")
        values = []
        for col, cell in enumerate(cells, start=1):
            if not _INT_RE.match(cell):
                raise LogError(f"non-integer cell {cell!r} at line {line_no}, column {col}")
            value = int_literal(cell)
            if value is None:
                raise LogError(
                    f"cell at line {line_no}, column {col} is outside {INT_MIN}..{INT_MAX}"
                )
            values.append(value)
        rows.append(tuple(values))
    return ExecutionLog(tuple(header), tuple(rows))


def format_log(log: ExecutionLog) -> str:
    lines = [",".join(log.variables)]
    lines.extend(",".join(str(v) for v in row) for row in log.rows)
    return "\n".join(lines) + "\n"


def row_conjunction(log: ExecutionLog, i: int) -> ctl.CtlFormula:
    """The conjunction pinning row ``i`` (1-based): one equality atom per
    column, in header order."""
    if not 1 <= i <= log.n:
        raise LogError(f"row index {i} out of range 1..{log.n}")
    row = log.rows[i - 1]
    formula: ctl.CtlFormula = ctl.Atom(log.variables[0], "==", row[0])
    for var, value in zip(log.variables[1:], row[1:]):
        formula = ctl.And(formula, ctl.Atom(var, "==", value))
    return formula


def _temporal_chain(log: ExecutionLog, op, base: str) -> ctl.CtlFormula:
    if base not in BASES:
        raise LogError(f"unknown base mode '{base}'")
    n = log.n
    if base == "faithful":
        if log.rows[n - 2] != log.rows[n - 1]:
            warnings.warn(
                UnsatisfiableLogWarning(
                    "faithful base pins rows "
                    f"{n - 1} and {n} at one state but they differ; "
                    "the property is unsatisfiable on any graph"
                ),
                stacklevel=3,
            )
        formula = ctl.And(row_conjunction(log, n - 1), ctl.AG(row_conjunction(log, n)))
        start = 3
    else:
        formula = ctl.And(row_conjunction(log, n), ctl.AG(row_conjunction(log, n)))
        start = 2
    for i in range(start, n + 1):
        formula = ctl.And(row_conjunction(log, n - i + 1), op(formula))
    return formula


def strong_property(log: ExecutionLog, base: str = "faithful") -> ctl.CtlFormula:
    """Compile the log into the single-transition (EX) property."""
    return _temporal_chain(log, ctl.EX, base)


def weak_property(log: ExecutionLog, base: str = "faithful") -> ctl.CtlFormula:
    """Compile the log into the reachability (EF) property; identical to the
    strong property except every EX node becomes EF."""
    return _temporal_chain(log, ctl.EF, base)


def check_shape(mode: str, base: str) -> None:
    """Raise :class:`LogError` for an unknown property mode or base."""
    if mode not in MODES:
        raise LogError(f"unknown property mode '{mode}'")
    if base not in BASES:
        raise LogError(f"unknown base mode '{base}'")


def log_property(log: ExecutionLog, mode: str = "strong", base: str = "faithful") -> ctl.CtlFormula:
    check_shape(mode, base)
    return strong_property(log, base) if mode == "strong" else weak_property(log, base)

"""Execution logs and their compilation into CTL properties.

A log is a CSV table: a header of variable names, then one row of signed
64-bit integer values per observed state.  ``parse_log`` reads the rows
with a line-anchored regex search for each odd line, one that is not a
row of integer cells of at most 18 digits, which surely fit in 64 bits.
Each odd line is read alone, giving its row or the ``LogError`` that
names it, and the clean lines between are converted in chunks of whole
lines inside C calls.  The log compiles into two property shapes:

* strong -- consecutive rows must be connected by single transitions (EX)
  and the final row must hold forever (AG);
* weak -- rows must be reachable in order (EF), same final AG.

Both come in two base-case flavours.  The ``faithful`` base conjoins the
second-to-last row with ``AG`` of the last row at the same state, so it is
satisfiable only when the log repeats its final row; the ``corrected``
base anchors ``AG`` on the last row alone and chains every earlier row
through the temporal operator.  ``faithful`` is the default.

The validator decides these properties with ``checker.follow``, a walk
that steps the rows with the model's successor function, without
building them or the state graph; the formulas serve ``gen-property``,
``check`` and the walk's tests.
"""

from __future__ import annotations

import re
import warnings
from dataclasses import dataclass

from . import ctl
from .errors import LogError
from .expr import INT_MAX, INT_MIN, int_literal

_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")
# One cell of a row that fits in 64 bits: an integer of at most 18 digits,
# with blanks, but no newline, around it.
_CELL = r"[^\S\n]*-?\d{1,18}[^\S\n]*"
_TOKEN_RE = re.compile(r"-?\d+")
# Characters of whole lines per findall, so that the strings of only one
# chunk's cells are alive at once, not those of the whole log.
_CHUNK = 1 << 16

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
        if any(map(m.__ne__, map(len, self.rows))):
            for i, row in enumerate(self.rows, start=1):
                if len(row) != m:
                    raise LogError(f"row {i} has {len(row)} cells, expected {m}")

    @property
    def n(self) -> int:
        return len(self.rows)


def parse_log(text: str) -> ExecutionLog:
    """Parse CSV log text (LF or CRLF, no quoting): the header, then the
    rows with ``_read_rows``, whose first bad line raises the ``LogError``
    that names it."""
    if not text:
        raise LogError("empty log")
    newline = text.find("\n")
    if newline < 0:
        newline = len(text)
    header = [cell.strip() for cell in text[:newline].rstrip("\r").split(",")]
    for cell in header:
        if not _IDENT_RE.match(cell):
            raise LogError(f"invalid variable name {cell!r} in header")
    m = len(header)
    end = len(text) - text.endswith("\n")
    return ExecutionLog(tuple(header), _read_rows(text, newline, end, m))


def _read_rows(text: str, start: int, end: int, m: int) -> tuple[tuple[int, ...], ...]:
    """The rows on the lines of ``text[start + 1:end]``, ``start`` being the
    header's newline.  Each odd line, one that is not ``m`` integer cells
    of at most 18 digits, is read alone before the clean run above it is
    converted, so a bad line is refused before any cell above it is."""
    # Anchored on the newline before each line, not on ^, the search starts
    # a match only at newlines, which the regex engine finds by scanning for
    # that one character.
    odd = re.compile(f"(?m)\n(?!{_CELL}(?:,{_CELL}){{{m - 1}}}$)")
    rows: list[tuple[int, ...]] = []
    i, line_no = start + 1, 2  # the first line not yet read, and its number
    for found in odd.finditer(text, start, end):
        at = found.start()  # the newline before the odd line
        line_no += text.count("\n", i, at + 1)
        stop = text.find("\n", at + 1, end)
        stop = end if stop < 0 else stop
        row = _line_row(text[at + 1:stop], line_no, m)
        _convert(rows, text, i, at, m)
        rows.append(row)
        i, line_no = stop + 1, line_no + 1
    _convert(rows, text, i, end, m)
    return tuple(rows)


def _convert(rows: list, text: str, i: int, stop: int, m: int) -> None:
    """Append the rows of the clean lines of ``text[i:stop]`` to ``rows``."""
    while i < stop:
        j = text.find("\n", i + _CHUNK, stop)
        if j < 0:
            j = stop
        cells = map(int, _TOKEN_RE.findall(text, i, j))
        rows.extend(zip(*[cells] * m))
        i = j + 1


def _line_row(line: str, line_no: int, m: int) -> tuple[int, ...]:
    """The row on one odd line, numbered ``line_no``, or the ``LogError``
    that names what is wrong with it."""
    cells = [cell.strip() for cell in line.rstrip("\r").split(",")]
    if len(cells) != m:
        raise LogError(f"ragged row at line {line_no}: {len(cells)} cells, expected {m}")
    values = []
    for col, cell in enumerate(cells, start=1):
        if not _TOKEN_RE.fullmatch(cell):
            raise LogError(f"non-integer cell {cell!r} at line {line_no}, column {col}")
        value = int_literal(cell)
        if value is None:
            raise LogError(f"cell at line {line_no}, column {col} is outside {INT_MIN}..{INT_MAX}")
        values.append(value)
    return tuple(values)


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


def check_shape(mode: str, base: str) -> None:
    """Raise :class:`LogError` for an unknown property mode or base."""
    if mode not in MODES:
        raise LogError(f"unknown property mode '{mode}'")
    if base not in BASES:
        raise LogError(f"unknown base mode '{base}'")


def log_property(log: ExecutionLog, mode: str = "strong", base: str = "faithful") -> ctl.CtlFormula:
    """Compile the log into its property: each row is one transition
    (``EX``, strong) or some steps (``EF``, weak) after the one before."""
    check_shape(mode, base)
    op = ctl.EX if mode == "strong" else ctl.EF
    n = log.n
    if base == "faithful":
        if log.rows[n - 2] != log.rows[n - 1]:
            warnings.warn(
                UnsatisfiableLogWarning(
                    "faithful base pins rows "
                    f"{n - 1} and {n} at one state but they differ; "
                    "the property is unsatisfiable on any graph"
                ),
                stacklevel=2,
            )
        formula = ctl.And(row_conjunction(log, n - 1), ctl.AG(row_conjunction(log, n)))
        start = 3
    else:
        formula = ctl.And(row_conjunction(log, n), ctl.AG(row_conjunction(log, n)))
        start = 2
    for i in range(start, n + 1):
        formula = ctl.And(row_conjunction(log, n - i + 1), op(formula))
    return formula

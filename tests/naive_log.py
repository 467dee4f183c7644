"""Reference log parser used against ``traceval.execlog.parse_log``.

The parser as it was before ``parse_log`` checked and converted the rows
in bulk: the text split into lines, each line into cells, and one regex
match and one ``int_literal`` call per cell.
"""

from __future__ import annotations

import re

from traceval.errors import LogError
from traceval.execlog import ExecutionLog
from traceval.expr import INT_MAX, INT_MIN, int_literal

_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")
_INT_RE = re.compile(r"-?\d+\Z")


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

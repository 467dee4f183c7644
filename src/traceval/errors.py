"""Exception types shared across the toolkit."""


class TracevalError(Exception):
    """Base class for every error raised by this package."""


def line_col(text: str, offset: int) -> tuple[int, int]:
    """The 1-based line and column of character ``offset`` in ``text``."""
    line = text.count("\n", 0, offset) + 1
    col = offset - (text.rfind("\n", 0, offset) + 1) + 1
    return line, col


class ParseError(TracevalError):
    """Syntax or semantic error in model, formula or settings text.

    Carries a 1-based ``line`` and ``col`` whenever the offending position
    is known; the position is prefixed to the message.  Errors in model
    and formula text also carry the 0-based character ``offset`` of that
    position; settings errors carry ``None``.
    """

    def __init__(
        self,
        message: str,
        line: int | None = None,
        col: int | None = None,
        offset: int | None = None,
    ):
        self.bare_message = message
        self.line = line
        self.col = col
        self.offset = offset
        if line is not None:
            message = f"{line}:{col}: {message}"
        super().__init__(message)


class EvalError(TracevalError):
    """Expression evaluation failed: unknown name, type mismatch or overflow."""


class ModelError(TracevalError):
    """A model violates its own declarations (bad bounds, bad update, ...)."""


class StateExplosionError(ModelError):
    """Reachable state space exceeded the configured budget."""


class TemplateError(TracevalError):
    """Template rendering failed: malformed tag, unresolved tag or bad output."""


class LogError(TracevalError):
    """An execution log is malformed or an index into it is out of range."""


class StoreError(TracevalError):
    """Content store lookup failed or an entry is corrupt."""


class LedgerError(TracevalError):
    """The ledger rejected an event (illegal transition, bad sequence, ...)."""


class TownError(TracevalError):
    """Town map, objective or fault specification is invalid."""

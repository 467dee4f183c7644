"""``checker.follow`` as it was before the weak searches of one log shared
the state budget, kept verbatim as the reference the budgeted walk must
agree with wherever the searches stay within the budget: here each weak
search gets the whole ``max_states``."""

from __future__ import annotations

from typing import Callable, Collection, Sequence

from traceval.checker import Witness, reach
from traceval.execlog import ExecutionLog, check_shape
from traceval.model import DEFAULT_STATE_BUDGET, Valuation


def follow(
    successors: Callable[[Valuation], Sequence[Valuation]], initial: Collection[Valuation],
    log: ExecutionLog, mode: str = "strong", base: str = "faithful",
    max_states: int = DEFAULT_STATE_BUDGET,
) -> Witness | None:
    """``None`` when the model whose successor function and initial
    valuations (``compile_model``'s) are given admits the log, exactly when
    ``holds_initially(build_graph(model), log_property(log, mode, base))``
    holds; otherwise the first row the walk refuses.  The log's columns are
    the model's variables, in order.  Raises :class:`LogError` for an
    unknown mode or base, as ``log_property`` does, and
    :class:`StateExplosionError` when a weak search finds more than
    ``max_states`` valuations."""
    check_shape(mode, base)
    rows = log.rows
    here = rows[0]
    if here not in initial:
        return Witness(1, "not-initial")
    for k in range(2, len(rows) if base == "faithful" else len(rows) + 1):
        row = rows[k - 1]
        if mode == "strong":
            if row not in successors(here):
                return Witness(k, "no-transition")
        elif row != here and row not in successors(here):
            if row not in reach(successors, (here,), max_states, row)[0]:
                return Witness(k, "unreachable")
        here = row
    if here == rows[-1] and list(successors(here)) == [here]:
        return None
    return Witness(len(rows), "not-absorbing")

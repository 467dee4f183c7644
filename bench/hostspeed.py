"""How fast the host ran Python during a run, from a fixed slice of work.

The benchmark runs on shared hosts whose speed drifts.  On a shared 2-core
virtual machine, whole 25-second runs a few minutes apart differed by up to
1.8 times on the same inputs, while the guest saw no steal time: another
tenant takes the core in slices the guest cannot account for, and short
verdicts lose proportionally more to it than long ones.  Raw times then
spread more from run to run than the regressions the benchmark must catch.

So the timed run also times ``reference_slice``, about every
``INTERVAL_S`` between verdicts: a breadth-first walk that evaluates
tuple-tree guards over fresh dict environments and builds successor tuples,
the kind of work ``build_graph`` does, written here and independent of the
package.  Every time the run reports is scaled by ``NOMINAL_S`` over the
mean slice, so a run on a host that was a third slower than usual reads
about as if it had run at the usual speed.  The mean, not the median, counts
the slices the other tenant hit, as the verdicts' times do.  A change to the
package moves scaled times exactly as much as raw ones.
"""

from __future__ import annotations

import gc
import statistics
from time import perf_counter

SIDE, DEPTH = 12, 8
# (guard, move) pairs; a move fires where its guard holds
MOVES = tuple(
    (("&", ("==", var, value), ("<", other, bound)), step)
    for value in range(0, SIDE, 3)
    for var, other, bound, step in (
        ("x", "y", 9, (1, 0, 0)),
        ("y", "k", 6, (0, 1, 0)),
        ("x", "k", 7, (0, 0, 1)),
    )
) + ((("|", ("<", "x", SIDE), ("==", "k", 0)), (1, 1, 1)),)


def _holds(guard, env) -> bool:
    op, left, right = guard
    if op == "&":
        return _holds(left, env) and _holds(right, env)
    if op == "|":
        return _holds(left, env) or _holds(right, env)
    value = env[left]
    return value == right if op == "==" else value < right


def _walk() -> int:
    start = (0, 0, 0)
    seen = {start}
    todo = [start]
    while todo:
        x, y, k = todo.pop()
        env = {"x": x, "y": y, "k": k}
        for guard, (dx, dy, dk) in MOVES:
            if _holds(guard, env):
                nxt = ((x + dx) % SIDE, (y + dy) % SIDE, (k + dk) % DEPTH)
                if nxt not in seen:
                    seen.add(nxt)
                    todo.append(nxt)
    return len(seen)


def reference_slice() -> float:
    """Seconds four fixed walks take, with the garbage collector paused so
    that the package's live objects cannot slow them."""
    collecting = gc.isenabled()
    gc.disable()
    try:
        start = perf_counter()
        for _ in range(4):
            _walk()
        return perf_counter() - start
    finally:
        if collecting:
            gc.enable()


class HostSpeed:
    NOMINAL_S = 0.02  # about one slice on a 2 GHz core that nothing else uses
    INTERVAL_S = 0.4

    def __init__(self):
        self.slices: list[float] = []
        self._due = 0.0

    def sample(self, force: bool = False):
        """Time a slice if ``INTERVAL_S`` has passed since the last one, or if ``force``."""
        if force or perf_counter() >= self._due:
            self.slices.append(reference_slice())
            self._due = perf_counter() + self.INTERVAL_S

    def mark(self) -> int:
        """Tag for a time that ended after the last slice; pass it to :meth:`scale`
        once a slice has been timed after it."""
        return len(self.slices)

    def scale(self, mark: int) -> float:
        """Factor that turns a time tagged ``mark`` into nominal-speed time,
        from the slices just before and just after it."""
        return self.NOMINAL_S / statistics.fmean(self.slices[mark - 1 : mark + 1])

    def scaled(self, seconds: float) -> float:
        """``seconds``, which ended just now, at nominal speed."""
        mark = self.mark()
        self.sample(force=True)
        return seconds * self.scale(mark)

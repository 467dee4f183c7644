"""In-memory spans for the traced run, and the layer self times derived from them."""

from __future__ import annotations

import json
from contextlib import contextmanager
from time import perf_counter


class Tracer:
    """Records one span per call: name, start, end and the enclosing span.

    Spans stay in memory until :meth:`dump`; the benchmark is single-threaded,
    so one stack of open spans is enough.
    """

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or None]
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        """Yields the span's index in :attr:`spans`."""
        index = len(self.spans)
        parent = self._open[-1] if self._open else None
        record = [name, perf_counter(), None, parent]
        self.spans.append(record)
        self._open.append(index)
        try:
            yield index
        finally:
            record[2] = perf_counter()
            self._open.pop()

    def call(self, name: str, fn, *args, **kwargs):
        with self.span(name):
            return fn(*args, **kwargs)

    def wrap(self, name: str, fn, observe=None):
        """``fn`` with a span around every call; ``observe(index, result)``
        runs after a call that returned, outside its span."""

        def traced(*args, **kwargs):
            with self.span(name) as index:
                result = fn(*args, **kwargs)
            if observe is not None:
                observe(index, result)
            return result

        return traced

    def self_times(self) -> dict[str, float]:
        """Total self time per span name: duration minus the child spans'."""
        totals: dict[str, float] = {}
        for name, start, end, _ in self.spans:
            totals[name] = totals.get(name, 0.0) + (end - start)
        for name, start, end, parent in self.spans:
            if parent is not None:
                parent_name = self.spans[parent][0]
                totals[parent_name] -= end - start
        return totals

    def dump(self, path):
        rows = [
            {"name": name, "start": start, "end": end, "parent": parent}
            for name, start, end, parent in self.spans
        ]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(rows, fh)


class NoTracer:
    """Stand-in for :class:`Tracer` in the timed run: calls straight through."""

    def call(self, name: str, fn, *args, **kwargs):
        return fn(*args, **kwargs)

"""In-memory span recorder used by the traced run.

A span is ``[name, start, end, parent]`` with times from ``perf_counter``
and ``parent`` the index of the enclosing span (-1 at the root).  Spans are
only appended to a list; whoever owns the recorder writes them out when the
run ends.
"""

from __future__ import annotations

from contextlib import contextmanager
from time import perf_counter


class Spans:
    def __init__(self):
        self.spans: list[list] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        index = len(self.spans)
        self.spans.append([name, perf_counter(), None, self._open[-1] if self._open else -1])
        self._open.append(index)
        try:
            yield
        finally:
            self._open.pop()
            self.spans[index][2] = perf_counter()

    def call(self, name: str, fn, *args):
        with self.span(name):
            return fn(*args)


def self_times(spans: list[list]) -> tuple[dict[str, float], dict[str, float]]:
    """Per span name: the summed self time (duration minus the time its
    child spans cover) and the longest single duration."""
    child = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child[parent] += end - start
    total: dict[str, float] = {}
    longest: dict[str, float] = {}
    for (name, start, end, _), covered in zip(spans, child):
        total[name] = total.get(name, 0.0) + (end - start - covered)
        longest[name] = max(longest.get(name, 0.0), end - start)
    return total, longest

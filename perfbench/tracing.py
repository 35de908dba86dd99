"""In-memory spans recorded around the benchmark's calls into the program.

A span holds its name, start and end in nanoseconds, the index of the span
that was open when it began, and a trace id (the event's position in the
stream for per-event spans). The part of a name before the first dot is the
module it is charged to.
"""

from __future__ import annotations

import json
from collections import defaultdict
from contextlib import contextmanager, nullcontext
from time import perf_counter_ns

_NO_SPAN = nullcontext()


class NullTracer:
    """Records nothing; the untraced runs pass this one."""

    def span(self, name, trace_id=None):
        return _NO_SPAN


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start_ns, end_ns, parent, trace_id]
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str, trace_id: int | None = None):
        record = [name, perf_counter_ns(), None, self._open[-1] if self._open else None, trace_id]
        self._open.append(len(self.spans))
        self.spans.append(record)
        try:
            yield
        finally:
            record[2] = perf_counter_ns()
            self._open.pop()

    def durations_ns(self, name: str) -> list[int]:
        return [end - start for n, start, end, _, _ in self.spans if n == name]

    def self_ns_by_module(self) -> dict[str, int]:
        """Each span's duration less the time its direct children cover,
        summed per module. Spans nest without overlap in one thread."""
        children = defaultdict(int)
        for _, start, end, parent, _ in self.spans:
            if parent is not None:
                children[parent] += end - start
        totals = defaultdict(int)
        for i, (name, start, end, _, _) in enumerate(self.spans):
            totals[name.split(".", 1)[0]] += end - start - children[i]
        return dict(totals)

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for name, start, end, parent, trace_id in self.spans:
                handle.write(json.dumps(
                    {"name": name, "start_ns": start, "end_ns": end,
                     "parent": parent, "trace_id": trace_id}) + "\n")

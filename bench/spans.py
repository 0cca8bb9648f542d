"""In-memory span tracing for the benchmark, and per-span self time.

A span is one call into a layer, timed from outside: name, start, end, the
index of the span that was open when it began (its parent), and the id of
the item being worked on.  Spans stay in memory until the run ends.
"""

import json
from contextlib import contextmanager, nullcontext
from dataclasses import asdict, dataclass
from time import perf_counter

_OFF = nullcontext()


@dataclass(slots=True)
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    item: int | None
    phase: str


class Tracer:
    """Records spans while `enabled`; otherwise span() is a shared no-op."""

    def __init__(self):
        self.spans = []
        self.enabled = False
        self.item = None
        self.phase = "measure"
        self._open = []

    def span(self, name):
        if not self.enabled:
            return _OFF
        return self._record(name)

    @contextmanager
    def _record(self, name):
        idx = len(self.spans)
        parent = self._open[-1] if self._open else None
        self.spans.append(Span(name, perf_counter(), 0.0, parent, self.item, self.phase))
        self._open.append(idx)
        try:
            yield
        finally:
            self._open.pop()
            self.spans[idx].end = perf_counter()

    def write(self, path):
        with open(path, "w") as fh:
            json.dump([asdict(s) for s in self.spans], fh)


def self_times(spans):
    """Each span's duration minus the part of it that its children cover."""
    children = {}
    for i, s in enumerate(spans):
        if s.parent is not None:
            children.setdefault(s.parent, []).append(i)
    out = []
    for i, s in enumerate(spans):
        covered = 0.0
        reach = s.start
        for c in sorted(children.get(i, ()), key=lambda c: spans[c].start):
            a = max(spans[c].start, reach)
            b = min(spans[c].end, s.end)
            if b > a:
                covered += b - a
                reach = b
        out.append(s.end - s.start - covered)
    return out

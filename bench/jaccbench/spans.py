"""Span recorder for the traced run.

Spans are recorded from the benchmark's files, around the calls into
each layer's public functions (spans inside the program are a later
change).  Each span carries a name, start, end, the span that caused it
and the identifier of the operation it belongs to; they stay in memory
until the run ends and are then written out as one JSON file.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from pathlib import Path


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    op: int | None

    @property
    def duration(self) -> float:
        return self.end - self.start


class SpanRecorder:
    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._op: int | None = None
        self._next_op = 0

    @contextmanager
    def operation(self, name: str):
        """A top-level span; its children share one operation id."""
        self._op = self._next_op
        self._next_op += 1
        try:
            with self.span(name) as s:
                yield s
        finally:
            self._op = None

    @contextmanager
    def span(self, name: str):
        span = Span(
            id=len(self.spans), name=name, start=time.perf_counter(),
            end=0.0, parent=self._stack[-1] if self._stack else None,
            op=self._op,
        )
        self.spans.append(span)
        self._stack.append(span.id)
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            self._stack.pop()

    # ---- derived views -------------------------------------------------

    def total(self, name: str) -> float:
        """Summed duration of every span called ``name``."""
        return sum(s.duration for s in self.spans if s.name == name)

    def durations(self, name: str) -> list[float]:
        return [s.duration for s in self.spans if s.name == name]

    def self_times(self) -> dict[str, float]:
        """Per name: duration minus the part its child spans cover."""
        children: dict[int, list[Span]] = {}
        for s in self.spans:
            if s.parent is not None:
                children.setdefault(s.parent, []).append(s)
        out: dict[str, float] = {}
        for s in self.spans:
            covered, edge = 0.0, s.start
            for c in sorted(children.get(s.id, ()), key=lambda c: c.start):
                lo, hi = max(c.start, edge), min(c.end, s.end)
                if hi > lo:
                    covered += hi - lo
                    edge = hi
            out[s.name] = out.get(s.name, 0.0) + s.duration - covered
        return out

    def write(self, path: Path, **header) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = {
            **header,
            "self_seconds": self.self_times(),
            "spans": [asdict(s) for s in self.spans],
        }
        path.write_text(json.dumps(payload))

"""In-memory span tracer for the benchmark's traced runs.

Spans are recorded by wrapping calls into each layer's public functions
from the benchmark's own files; nothing inside ``src/`` is changed. A
span is ``(name, start, end, parent, trace)``: ``parent`` is the index
of the span that was open when it started (-1 for a root) and ``trace``
is the index of its root span, so every span caused by one offer call or
one slot advance shares an identifier. Spans stay in memory until
:meth:`Tracer.write` dumps them at the end of the run.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path


class Tracer:
    """Records nested spans and derives per-name totals and self times."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.traces: list[int] = []
        self._stack: list[int] = []

    def _open(self, name: str) -> int:
        index = len(self.names)
        parent = self._stack[-1] if self._stack else -1
        self.names.append(name)
        self.parents.append(parent)
        self.traces.append(self.traces[parent] if parent >= 0 else index)
        self.ends.append(0.0)
        self._stack.append(index)
        self.starts.append(time.perf_counter())
        return index

    def _close(self, index: int) -> None:
        self.ends[index] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        index = self._open(name)
        try:
            yield
        finally:
            self._close(index)

    def wrap(self, name: str, function):
        """``function`` with every call recorded as a ``name`` span."""

        def traced(*args, **kwargs):
            index = self._open(name)
            try:
                return function(*args, **kwargs)
            finally:
                self._close(index)

        return traced

    def mark(self) -> int:
        """Position to pass to :meth:`summary` to skip earlier spans."""
        return len(self.names)

    def summary(self, since: int = 0) -> dict[str, dict[str, float]]:
        """Per span name: call count, total seconds and self seconds.

        Self time is a span's duration minus the durations of its direct
        children (children nest inside their parent on one thread).
        """
        child_time = [0.0] * len(self.names)
        for i in range(since, len(self.names)):
            parent = self.parents[i]
            if parent >= since:
                child_time[parent] += self.ends[i] - self.starts[i]
        out: dict[str, dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0}
        )
        for i in range(since, len(self.names)):
            duration = self.ends[i] - self.starts[i]
            entry = out[self.names[i]]
            entry["calls"] += 1
            entry["total_s"] += duration
            entry["self_s"] += duration - child_time[i]
        return dict(out)

    def write(self, path: Path) -> None:
        """Dump every span as one JSON object per line."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as handle:
            for i, name in enumerate(self.names):
                handle.write(
                    json.dumps(
                        {
                            "id": i,
                            "name": name,
                            "start": self.starts[i],
                            "end": self.ends[i],
                            "parent": self.parents[i],
                            "trace": self.traces[i],
                        }
                    )
                    + "\n"
                )


@contextmanager
def traced_attribute(tracer: Tracer, target, attribute: str, name: str):
    """Record calls to ``target.attribute`` as ``name`` spans while open.

    For a function imported by name into a module, pass that module as
    ``target``: its callers look the name up there at call time.
    """
    original = getattr(target, attribute)
    setattr(target, attribute, tracer.wrap(name, original))
    try:
        yield
    finally:
        setattr(target, attribute, original)

"""In-memory span tracing by rebinding the names a calling module looks up.

A Tracer replaces ``module.attr`` with a wrapper that records a span (name,
parent span, start, end and optional counts) around each call, and restores
the original on exit.  Spans nest through a stack, so tracing is only valid
for single-threaded, in-process runs (``--workers 1``).  The package itself is
not modified: only module attributes are swapped for the duration of a run.
"""
from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field


@dataclass
class Span:
    name: str
    parent: int
    start: float
    end: float = 0.0
    counts: dict = field(default_factory=dict)

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records spans for the calls made through the attributes it wraps."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._restore: list[tuple] = []

    @contextmanager
    def span(self, name: str):
        """Open a span by hand, e.g. around the root call of a run."""
        idx = len(self.spans)
        s = Span(name, self._stack[-1] if self._stack else -1, time.perf_counter())
        self.spans.append(s)
        self._stack.append(idx)
        try:
            yield s
        finally:
            self._stack.pop()
            s.end = time.perf_counter()

    def wrap(self, module, attr: str, name: str, count=None) -> None:
        """Rebind module.attr to a traced wrapper.

        count(args, kwargs, result) -> dict of counts stored on the span.  A
        missing attribute is skipped, so a refactor that drops an import makes
        that layer read zero instead of breaking the benchmark.
        """
        orig = getattr(module, attr, None)
        if orig is None:
            return
        tracer = self

        def traced(*args, **kwargs):
            with tracer.span(name) as s:
                result = orig(*args, **kwargs)
            if count is not None:
                s.counts = count(args, kwargs, result)
            return result

        setattr(module, attr, traced)
        self._restore.append((module, attr, orig))

    def close(self) -> None:
        while self._restore:
            module, attr, orig = self._restore.pop()
            setattr(module, attr, orig)

    def __enter__(self) -> "Tracer":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- aggregation ---------------------------------------------------

    def self_times(self) -> list[float]:
        """Per-span duration minus the durations of its direct children."""
        own = [s.duration for s in self.spans]
        for s in self.spans:
            if s.parent >= 0:
                own[s.parent] -= s.duration
        return own

    def layer_self_s(self) -> dict[str, float]:
        out: dict[str, float] = {}
        for s, own in zip(self.spans, self.self_times()):
            out[s.layer] = out.get(s.layer, 0.0) + own
        return out

    def root_s(self) -> float:
        return sum((s.duration for s in self.spans if s.parent < 0), 0.0)

    def total(self, name: str, key: str | None = None) -> float:
        """Summed duration (key=None) or summed count `key` over spans called name."""
        if key is None:
            return sum((s.duration for s in self.spans if s.name == name), 0.0)
        return sum(s.counts.get(key, 0) for s in self.spans if s.name == name)

    def self_total(self, name: str) -> float:
        return sum((own for s, own in zip(self.spans, self.self_times()) if s.name == name), 0.0)

    def calls(self, name: str) -> int:
        return sum(1 for s in self.spans if s.name == name)

    def to_records(self) -> list[dict]:
        t0 = min((s.start for s in self.spans), default=0.0)
        return [{"id": i, "parent": s.parent, "name": s.name,
                 "start_s": s.start - t0, "end_s": s.end - t0, **s.counts}
                for i, s in enumerate(self.spans)]

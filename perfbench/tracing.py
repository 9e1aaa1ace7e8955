"""Spans around the calls the benchmark makes into vietamat.

A span records name, start, end, parent span, request id, whether the call
raised, and a tag (the identity or command it served).  Spans stay in
memory until the run ends.  `NullTracer` has the same interface and
records nothing, so traced and untraced runs share one request code path.
"""

from __future__ import annotations

import time
from dataclasses import dataclass


@dataclass
class Span:
    name: str
    start_ns: int
    end_ns: int
    parent: int | None
    request: int | None
    failed: bool
    tag: str | None

    @property
    def duration_ns(self) -> int:
        return self.end_ns - self.start_ns


class NullTracer:
    """Calls straight through; used for every end-to-end measurement."""

    def call(self, name, fn, *args, tag=None):
        return fn(*args)

    def request(self, label, fn, *args):
        return fn(*args)

    def count(self, name, thunk):
        pass

    def flush_counts(self):
        pass


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.counts: dict[str, int] = {}
        self._pending: list[tuple[str, object]] = []
        self._stack: list[int] = []
        self._request: int | None = None
        self._requests = 0

    def call(self, name, fn, *args, tag=None):
        span = Span(name, 0, 0, self._stack[-1] if self._stack else None, self._request, False, tag)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span.start_ns = time.perf_counter_ns()
        try:
            return fn(*args)
        except BaseException:
            span.failed = True
            raise
        finally:
            span.end_ns = time.perf_counter_ns()
            self._stack.pop()

    def request(self, label, fn, *args):
        """One request: a root span whose children share its request id."""
        self._request = self._requests
        self._requests += 1
        try:
            return self.call("request", fn, *args, tag=label)
        finally:
            self._request = None

    def count(self, name, thunk):
        """Queue a work count; `thunk` runs at `flush_counts`, which the
        caller invokes after its timer stops."""
        self._pending.append((name, thunk))

    def flush_counts(self):
        for name, thunk in self._pending:
            self.counts[name] = self.counts.get(name, 0) + thunk()
        self._pending.clear()

    def self_times(self) -> list[int]:
        """Span duration minus the time its children cover (children of
        one span never overlap: the benchmark is single-threaded)."""
        own = [span.duration_ns for span in self.spans]
        for span in self.spans:
            if span.parent is not None:
                own[span.parent] -= span.duration_ns
        return own

    def dump(self) -> list[dict]:
        return [
            {
                "id": i,
                "name": s.name,
                "start_ns": s.start_ns,
                "end_ns": s.end_ns,
                "parent": s.parent,
                "request": s.request,
                "failed": s.failed,
                "tag": s.tag,
            }
            for i, s in enumerate(self.spans)
        ]

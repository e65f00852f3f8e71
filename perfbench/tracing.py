"""In-memory spans recorded around calls into the package's modules.

Spans are taken only in the benchmark's own code: ``Tracer.wrap`` swaps a
module attribute for a recording wrapper for the length of a ``with``
block, so the program runs unchanged and is never edited for tracing.
"""

from __future__ import annotations

import contextlib
import functools
import time
from typing import Callable


class Tracer:
    """Collects spans: id, parent span, trace (request) id, name, start, end.

    A disabled tracer records nothing and wraps nothing.
    """

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self._trace = ""

    @contextlib.contextmanager
    def request(self, trace_id: str):
        """Spans opened inside share ``trace_id``."""
        if not self.enabled:
            yield
            return
        prev, self._trace = self._trace, trace_id
        try:
            yield
        finally:
            self._trace = prev

    @contextlib.contextmanager
    def span(self, name: str):
        if not self.enabled:
            yield {"counts": {}}
            return
        rec = {"id": len(self.spans), "parent": self._stack[-1] if self._stack else None,
               "trace": self._trace, "name": name, "start": 0.0, "end": 0.0, "counts": {}}
        self.spans.append(rec)
        self._stack.append(rec["id"])
        rec["start"] = time.perf_counter()
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()

    @contextlib.contextmanager
    def wrap(self, targets: list[tuple[object, str, str, Callable | None]]):
        """Record a span around each ``module.attr`` call inside the block.

        ``targets`` holds (module, attribute, span name, counter); the
        counter, when given, maps the call's result to the span's counts.
        """
        saved = []
        for module, attr, name, counter in targets if self.enabled else ():
            fn = getattr(module, attr)
            saved.append((module, attr, fn))
            setattr(module, attr, self._recording(fn, name, counter))
        try:
            yield
        finally:
            for module, attr, fn in reversed(saved):
                setattr(module, attr, fn)

    def _recording(self, fn, name, counter):
        @functools.wraps(fn)
        def call(*args, **kwargs):
            with self.span(name) as rec:
                result = fn(*args, **kwargs)
            if counter is not None:
                rec["counts"].update(counter(result))
            return result
        return call


def durations(spans: list[dict], name: str) -> list[float]:
    return [s["end"] - s["start"] for s in spans if s["name"] == name]


def self_times(spans: list[dict], name: str) -> list[float]:
    """Span duration minus the time its direct children cover."""
    child = {}
    for s in spans:
        if s["parent"] is not None:
            child[s["parent"]] = child.get(s["parent"], 0.0) + s["end"] - s["start"]
    return [s["end"] - s["start"] - child.get(s["id"], 0.0) for s in spans if s["name"] == name]

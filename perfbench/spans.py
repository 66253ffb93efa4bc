"""In-memory spans around the benchmark's calls into each library layer.

A span has a name ``<layer>.<call>``, a start and an end (``perf_counter``
seconds), the index of its parent span and the id of the config it belongs
to.  Spans are only kept in memory; the caller writes them out once, at the
end of the run.  A disabled tracer hands out one shared no-op context, so
untraced runs pay a method call per span and nothing else.
"""

from __future__ import annotations

import contextlib
import time
from collections import defaultdict


class Tracer:
    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self._config: str | None = None

    def span(self, name: str, config: str | None = None):
        if not self.enabled:
            return _NULL
        return self._record(name, config)

    @contextlib.contextmanager
    def _record(self, name: str, config: str | None):
        if config is not None:
            self._config = config
        idx = len(self.spans)
        span = {"name": name, "start": time.perf_counter(), "end": None,
                "parent": self._stack[-1] if self._stack else None,
                "config": self._config}
        self.spans.append(span)
        self._stack.append(idx)
        try:
            yield
        finally:
            self._stack.pop()
            span["end"] = time.perf_counter()


_NULL = contextlib.nullcontext()


def span_totals(spans: list[dict]) -> dict[str, float]:
    """Total duration per span name."""
    out: dict[str, float] = defaultdict(float)
    for s in spans:
        out[s["name"]] += s["end"] - s["start"]
    return dict(out)


def self_times(spans: list[dict], first: int = 0) -> dict[str, float]:
    """Self time per layer: each span's duration minus the part of it that
    its child spans cover.  ``first`` is the index of the first span of the
    group in the tracer's full list, so parent indices resolve."""
    child_cover: dict[int, float] = defaultdict(float)
    for s in spans:
        if s["parent"] is not None:
            child_cover[s["parent"]] += s["end"] - s["start"]
    out: dict[str, float] = defaultdict(float)
    for i, s in enumerate(spans, start=first):
        layer = s["name"].split(".", 1)[0]
        out[layer] += s["end"] - s["start"] - child_cover[i]
    return dict(out)

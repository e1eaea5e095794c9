"""In-memory spans recorded around calls into the program.

A :class:`Tracer` keeps every span in a list and writes them out once, at
the end of the run.  A span has a name, start and end (``perf_counter``
seconds), the id of the span that was open on the same thread when it
began (its parent) and a request id shared by the spans of one request.
Self time is a span's duration minus the part of its interval that its
children cover.
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from typing import Any, Callable, Iterator


@dataclass
class Span:
    sid: int
    name: str
    start: float
    end: float
    parent: int | None
    rid: str | None

    @property
    def duration(self) -> float:
        return self.end - self.start


def _covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total = 0.0
    reach = lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> duration minus the union of its children's intervals."""
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append((span.start, span.end))
    return {
        span.sid: span.duration
        - _covered(children.get(span.sid, []), span.start, span.end)
        for span in spans
    }


class Tracer:
    """Collects spans from any thread; parents follow a per-thread stack."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patches: list[tuple[Any, str, Any]] = []

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str, rid: str | None = None) -> Iterator[Span]:
        stack = self._stack()
        parent = stack[-1] if stack else None
        if rid is None and parent is not None:
            rid = parent.rid
        span = Span(next(self._ids), name, time.perf_counter(), 0.0,
                    parent.sid if parent else None, rid)
        stack.append(span)
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            stack.pop()
            with self._lock:
                self.spans.append(span)

    def wrap(self, name: str, fn: Callable) -> Callable:
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)

        return traced

    def replace(self, owner: Any, attr: str, new: Any) -> None:
        """Set ``owner.attr`` to ``new`` until :meth:`unpatch_all`."""
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def patch(self, owner: Any, attr: str, name: str) -> None:
        """Replace ``owner.attr`` by a span-recording wrapper until
        :meth:`unpatch_all`."""
        self.replace(owner, attr, self.wrap(name, getattr(owner, attr)))

    def unpatch_all(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def durations(self, name: str) -> list[float]:
        return [s.duration for s in self.spans if s.name == name]

    def self_durations(self, name: str) -> list[float]:
        own = self_times(self.spans)
        return [own[s.sid] for s in self.spans if s.name == name]

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump([asdict(s) for s in self.spans], handle)

"""A small in-memory span tracer for the end-to-end benchmark.

Layers are timed from outside: :meth:`Tracer.wrap` replaces a public
callable on a class, module or instance with a wrapper that records one
span per call, and :meth:`Tracer.restore` puts the originals back.  Spans
nest by call order (single thread, stack discipline), so every span knows
the span that caused it.  Nothing is written until the run ends
(:meth:`Tracer.write`).

A layer's *self time* is its span's duration minus the part of that
interval its child spans cover.  Child spans of one parent never overlap
here (one thread), so the covered part is the sum of their durations.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Optional

_MISSING = object()


@dataclass
class Span:
    """One timed call: the layer boundary it crossed and what caused it."""

    span_id: int
    name: str
    start: float
    end: float
    parent: Optional[int]

    @property
    def duration(self) -> float:
        return self.end - self.start


def self_times(spans: List[Span]) -> Dict[int, float]:
    """Self time per span id: duration minus what its direct children cover."""
    own = {span.span_id: span.duration for span in spans}
    for span in spans:
        if span.parent is not None:
            own[span.parent] -= span.duration
    return own


class Tracer:
    """Records spans around wrapped calls; all spans share one ``run_id``."""

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self.spans: List[Span] = []
        self._stack: List[int] = []
        self._installed: List[tuple] = []

    # ---------------------------------------------------------------- spans
    @contextmanager
    def span(self, name: str) -> Iterator[Span]:
        """Record one span around the ``with`` body."""
        span = Span(
            span_id=len(self.spans),
            name=name,
            start=time.perf_counter(),
            end=0.0,
            parent=self._stack[-1] if self._stack else None,
        )
        self.spans.append(span)
        self._stack.append(span.span_id)
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            self._stack.pop()

    # ------------------------------------------------------------- wrappers
    def traced(self, target: Callable, name: str) -> Callable:
        """``target`` wrapped so that every call records a span ``name``."""
        tracer = self

        def wrapper(*args, **kwargs):
            with tracer.span(name):
                return target(*args, **kwargs)

        return wrapper

    def replace(self, owner: object, attr: str, value: object) -> None:
        """Set ``owner.attr = value`` until :meth:`restore`."""
        self._installed.append((owner, attr, vars(owner).get(attr, _MISSING)))
        setattr(owner, attr, value)

    def wrap(self, owner: object, attr: str, name: str) -> None:
        """Record a span named ``name`` around every ``owner.attr(...)`` call.

        ``owner`` may be an instance (the wrapper shadows the bound method in
        the instance dict), a class (the wrapper is an ordinary function, so
        it binds like the method it replaces) or a module.
        """
        self.replace(owner, attr, self.traced(getattr(owner, attr), name))

    def restore(self) -> None:
        """Remove every wrapper, newest first, leaving owners as found."""
        while self._installed:
            owner, attr, original = self._installed.pop()
            if original is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)

    # -------------------------------------------------------------- queries
    def durations(self, name: str) -> List[float]:
        """Durations of every span named ``name``, in call order."""
        return [span.duration for span in self.spans if span.name == name]

    def by_name(self) -> Dict[str, Dict[str, float]]:
        """Per span name: summed duration, summed self time and call count."""
        own = self_times(self.spans)
        table: Dict[str, Dict[str, float]] = {}
        for span in self.spans:
            row = table.setdefault(span.name, {"total_s": 0.0, "self_s": 0.0, "calls": 0})
            row["total_s"] += span.duration
            row["self_s"] += own[span.span_id]
            row["calls"] += 1
        return table

    # --------------------------------------------------------------- output
    def write(self, path: Path) -> Path:
        """Write the spans as JSON (times relative to the first span)."""
        origin = self.spans[0].start if self.spans else 0.0
        payload = {
            "run_id": self.run_id,
            "spans": [
                {
                    "id": span.span_id,
                    "name": span.name,
                    "start_s": span.start - origin,
                    "end_s": span.end - origin,
                    "parent": span.parent,
                }
                for span in self.spans
            ],
        }
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(payload) + "\n")
        return path

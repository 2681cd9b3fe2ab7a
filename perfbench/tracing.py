"""Span recording for the traced run, from outside the program.

The traced run wraps public functions at the names their callers look
them up by (``repro.ilp.branch_bound.solve_lp_highs`` is what the branch
and bound calls, so that is the attribute replaced) and records one span
per call: name, start, end, parent and the request id of the operation
being measured.  Spans stay in memory and are written once, as Chrome
trace-event JSON, when the run ends.  Untraced runs never install a
wrapper, so end-to-end metrics are measured on the unmodified program.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int = -1
    rid: Optional[int] = None

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records nested spans of one thread and patches functions to emit them."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.spans: List[Span] = []
        self.rid: Optional[int] = None
        self._stack: List[int] = []
        self._patches: List[Tuple[Any, str, Any, Any]] = []

    # ----------------------------------------------------------------- spans
    def begin(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, self.clock(), parent=parent, rid=self.rid))
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def end(self, index: int) -> None:
        self.spans[index].end = self.clock()
        popped = self._stack.pop()
        if popped != index:
            raise RuntimeError(f"span {self.spans[index].name!r} closed out of order")

    @contextmanager
    def span(self, name: str) -> Iterator[int]:
        index = self.begin(name)
        try:
            yield index
        finally:
            self.end(index)

    # -------------------------------------------------------------- patching
    def wrap(
        self,
        fn: Callable,
        name: str,
        on_return: Optional[Callable[[int, Any], None]] = None,
    ) -> Callable:
        """``fn`` recording a span named ``name`` around every call."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(index)
            if on_return is not None:
                on_return(index, result)
            return result

        return traced

    def add(
        self,
        target: str,
        name: str,
        on_return: Optional[Callable[[int, Any], None]] = None,
    ) -> None:
        """Prepare a traced wrapper for ``module:attr`` or ``module:Class.method``.

        ``target`` names the attribute callers resolve at call time.  The
        wrapper is only put in place by :meth:`install`.
        """
        module_name, _, rest = target.partition(":")
        owner: Any = importlib.import_module(module_name)
        parts = rest.split(".")
        for part in parts[:-1]:
            owner = getattr(owner, part)
        attr = parts[-1]
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        if isinstance(original, (staticmethod, classmethod)):
            raise TypeError(f"cannot trace {target}: wrap plain functions only")
        self._patches.append((owner, attr, original, self.wrap(original, name, on_return)))

    def install(self) -> None:
        for owner, attr, _original, traced in self._patches:
            setattr(owner, attr, traced)

    def uninstall(self) -> None:
        for owner, attr, original, _traced in reversed(self._patches):
            setattr(owner, attr, original)

    @contextmanager
    def installed(self) -> Iterator["Tracer"]:
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    # --------------------------------------------------------------- analysis
    def self_times(self) -> Dict[str, float]:
        return self_times(self.spans)

    def call_counts(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for span in self.spans:
            counts[span.name] = counts.get(span.name, 0) + 1
        return counts

    def write_chrome(self, path: str, process_name: str) -> None:
        write_chrome_trace(self.spans, path, process_name)


def covered(intervals: Sequence[Tuple[float, float]], lo: float, hi: float) -> float:
    """Length of ``[lo, hi]`` covered by the union of ``intervals``."""
    total = 0.0
    cursor = lo
    for start, end in sorted(intervals):
        start, end = max(start, cursor), min(end, hi)
        if end > start:
            total += end - start
            cursor = end
    return total


def self_times(spans: Sequence[Span]) -> Dict[str, float]:
    """Per span name: Σ (duration − time covered by the span's children)."""
    children: Dict[int, List[Tuple[float, float]]] = {}
    for span in spans:
        if span.parent >= 0:
            children.setdefault(span.parent, []).append((span.start, span.end))
    totals: Dict[str, float] = {}
    for index, span in enumerate(spans):
        own = span.duration - covered(children.get(index, []), span.start, span.end)
        totals[span.name] = totals.get(span.name, 0.0) + own
    return totals


def write_chrome_trace(spans: Sequence[Span], path: str, process_name: str) -> None:
    """Chrome trace-event JSON (``traceEvents``), loadable in Perfetto."""
    origin = min((span.start for span in spans), default=0.0)
    pid = os.getpid()
    events: List[Dict[str, Any]] = [
        {"name": "process_name", "ph": "M", "pid": pid, "tid": 0,
         "args": {"name": process_name}},
    ]
    for index, span in enumerate(spans):
        events.append({
            "name": span.name,
            "cat": span.name.split(".", 1)[0],
            "ph": "X",
            "ts": (span.start - origin) * 1e6,
            "dur": span.duration * 1e6,
            "pid": pid,
            "tid": 0,
            "args": {"id": index, "parent": span.parent, "rid": span.rid},
        })
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, handle)

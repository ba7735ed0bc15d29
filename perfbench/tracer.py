"""Timing spans around the public functions of qmemwit's modules.

A traced run replaces every public function of each traced module with a
wrapper that records a span (name, start, end, parent span, point id) and
puts every original back when it ends.  Calls between modules go through
module attributes (``tl.partial_trace``, ``sdp.solve``) and calls inside a
module through its globals, so replacing the module attribute is enough to
see every call without editing the program.

Spans are kept in memory and written out by the caller when the run ends.
"""

from __future__ import annotations

import functools
import inspect
import json
import time
from collections.abc import Callable
from dataclasses import dataclass
from types import ModuleType

ROOT = -1


@dataclass(slots=True)
class Span:
    id: int
    name: str
    start_ns: int
    end_ns: int
    parent: int
    point: int
    extra: dict | None = None


def public_functions(module: ModuleType) -> dict[str, Callable]:
    """Plain functions defined in ``module`` itself whose names are public."""
    return {
        name: obj
        for name, obj in vars(module).items()
        if not name.startswith("_")
        and inspect.isfunction(obj)
        and obj.__module__ == module.__name__
    }


class Tracer:
    """Wraps module functions while installed; records only while ``recording``.

    ``modules`` maps the layer name used in span names to the module.
    ``annotate`` maps a span name to ``fn(args, kwargs, result) -> dict``,
    whose output is stored on the span (solver status, iteration count).
    """

    def __init__(
        self,
        modules: dict[str, ModuleType],
        annotate: dict[str, Callable] | None = None,
    ):
        self.modules = modules
        self.annotate = annotate or {}
        self.spans: list[Span] = []
        self.point = ROOT
        self.recording = False
        self._stack: list[int] = []
        self._originals: list[tuple[ModuleType, str, Callable]] = []

    def __enter__(self) -> "Tracer":
        for layer, module in self.modules.items():
            for name, fn in public_functions(module).items():
                self._originals.append((module, name, fn))
                setattr(module, name, self._wrap(f"{layer}.{name}", fn))
        return self

    def __exit__(self, *exc) -> bool:
        for module, name, fn in reversed(self._originals):
            setattr(module, name, fn)
        self._originals.clear()
        self.recording = False
        return False

    def _open(self, name: str) -> Span:
        parent = self._stack[-1] if self._stack else ROOT
        span = Span(len(self.spans), name, 0, 0, parent, self.point)
        self.spans.append(span)
        self._stack.append(span.id)
        span.start_ns = time.perf_counter_ns()
        return span

    def _close(self, span: Span) -> None:
        span.end_ns = time.perf_counter_ns()
        self._stack.pop()

    def _wrap(self, name: str, fn: Callable) -> Callable:
        annotate = self.annotate.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.recording:
                return fn(*args, **kwargs)
            span = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            if annotate is not None:
                span.extra = annotate(args, kwargs, result)
            return result

        return traced

    def run_point(self, point: int, fn: Callable, *args):
        """Call ``fn(*args)`` recorded under a root span for work unit ``point``."""
        self.point = point
        self.recording = True
        span = self._open("bench.point")
        try:
            return fn(*args)
        finally:
            self._close(span)
            self.recording = False

    def write(self, path) -> None:
        """Write the spans as JSON lines, times relative to the first span."""
        t0 = self.spans[0].start_ns if self.spans else 0
        with open(path, "w") as fh:
            for s in self.spans:
                record = {
                    "id": s.id,
                    "name": s.name,
                    "start_ns": s.start_ns - t0,
                    "end_ns": s.end_ns - t0,
                    "parent": s.parent,
                    "point": s.point,
                }
                if s.extra:
                    record["extra"] = s.extra
                fh.write(json.dumps(record) + "\n")


def self_times_ns(spans: list[Span]) -> list[int]:
    """Each span's duration minus the part of its interval its children cover."""
    children: dict[int, list[tuple[int, int]]] = {}
    for s in spans:
        if s.parent != ROOT:
            children.setdefault(s.parent, []).append((s.start_ns, s.end_ns))
    out = []
    for s in spans:
        covered = 0
        cursor = s.start_ns
        for start, end in sorted(children.get(s.id, ())):
            start, end = max(start, cursor), min(end, s.end_ns)
            if end > start:
                covered += end - start
                cursor = end
        out.append(s.end_ns - s.start_ns - covered)
    return out

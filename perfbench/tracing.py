"""Wall-clock span tracing built only from the benchmark's own files.

The program is not edited: spans are recorded around calls *into* each
layer through seams the public API already offers —

* engines: :class:`TimedEngine` wraps each engine passed via
  ``Session(engines=...)`` (``joins.exec`` for the software engines,
  ``core.exec`` for the ``triejax`` accelerator model) and the session
  maintainer's delta-join engine (``joins.delta``);
* compiler: :class:`TimedCompiler` (``Session(compiler=...)``) times
  ``signature`` and ``compile``/``compile_canonical``;
* router: :class:`TimedRouter` (``Session(router=...)``) times
  ``CostRouter.choose``;
* maintenance: :func:`maintenance_markers` returns a start listener to
  subscribe before the session's own invalidation listener and an end
  listener to subscribe after it, bracketing ``service.maintenance``.

The workload loop opens the root span of each operation itself.  A span is
``[name, layer, start, end, parent, request, phase, count]``; spans live in
memory and are written as JSONL once the run ends.  A layer's self time is
the sum over its spans of duration minus the duration of direct children.
"""

from __future__ import annotations

import json
import time
from typing import Dict, Iterable, List, Optional

from repro.api import CostRouter, EngineProtocol
from repro.joins.compiler import QueryCompiler

LAYERS = ("api", "joins", "core", "service", "relational", "storage", "graphs")

NAME, LAYER, START, END, PARENT, REQUEST, PHASE, COUNT = range(8)

_clock = time.perf_counter


class Tracer:
    """An in-memory span stack; spans nest by call order on one thread."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self._stack: List[int] = []
        self.request: Optional[int] = None
        self.phase = "setup"

    def begin(self, name: str, layer: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(
            [name, layer, _clock(), 0.0, parent, self.request, self.phase, 0]
        )
        self._stack.append(index)
        return index

    def end(self, index: int, count: int = 0) -> None:
        now = _clock()
        # Close anything left open above ``index`` (an end marker that never
        # ran because a listener raised) so the tree stays well formed.
        while self._stack:
            top = self._stack.pop()
            self.spans[top][END] = now
            if top == index:
                break
        self.spans[index][COUNT] = count

    def write_jsonl(self, path: str) -> None:
        keys = ("name", "layer", "start", "end", "parent", "request", "phase", "count")
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(dict(zip(keys, span))) + "\n")


class TimedEngine(EngineProtocol):
    """Delegates to ``inner`` and records one span per ``execute`` call."""

    def __init__(self, inner: EngineProtocol, tracer: Tracer, span: str):
        self.inner = inner
        self.name = inner.name
        self.capabilities = inner.capabilities
        self._tracer = tracer
        self._span = span
        self._layer = span.split(".", 1)[0]

    def execute(self, query, database, plan=None):
        index = self._tracer.begin(self._span, self._layer)
        tuples = 0
        try:
            execution = self.inner.execute(query, database, plan=plan)
            tuples = len(execution.tuples)
            return execution
        finally:
            self._tracer.end(index, tuples)


def timed_engine(engine: EngineProtocol, tracer: Tracer) -> TimedEngine:
    """Wrap a session engine: the accelerator model is ``core``, the rest ``joins``."""
    return TimedEngine(
        engine, tracer, "core.exec" if engine.name == "triejax" else "joins.exec"
    )


class TimedCompiler(QueryCompiler):
    """The default caching compiler, with signature and compile spans."""

    def __init__(self, tracer: Tracer):
        super().__init__(enable_caching=True)
        self._tracer = tracer

    def signature(self, query):
        index = self._tracer.begin("joins.signature", "joins")
        try:
            return super().signature(query)
        finally:
            self._tracer.end(index)

    def compile(self, query, variable_order=None):
        index = self._tracer.begin("joins.compile", "joins")
        try:
            return super().compile(query, variable_order)
        finally:
            self._tracer.end(index)

    def compile_canonical(self, query):
        index = self._tracer.begin("joins.compile", "joins")
        try:
            return super().compile_canonical(query)
        finally:
            self._tracer.end(index)


class TimedRouter(CostRouter):
    """The default cost router, with one ``api.route`` span per choice."""

    def __init__(self, tracer: Tracer):
        self._tracer = tracer

    def choose(self, query, database, engines):
        index = self._tracer.begin("api.route", "api")
        try:
            return super().choose(query, database, engines)
        finally:
            self._tracer.end(index)


def maintenance_markers(tracer: Tracer):
    """(start, end) invalidation listeners bracketing the session's listener."""
    open_spans: List[int] = []

    def start(_event) -> None:
        open_spans.append(tracer.begin("service.maintenance", "service"))

    def end(_event) -> None:
        if open_spans:
            tracer.end(open_spans.pop())

    return start, end


# --------------------------------------------------------------------------- #
# Summaries
# --------------------------------------------------------------------------- #
def _self_times(spans: List[list]) -> List[float]:
    """Each span's duration minus the durations of its direct children."""
    own = [span[END] - span[START] for span in spans]
    for span in spans:
        if span[PARENT] >= 0:
            own[span[PARENT]] -= span[END] - span[START]
    return own


def layer_self_times(spans: List[list], phase: Optional[str] = None) -> Dict[str, float]:
    """Self time per layer over the spans of ``phase`` (all phases if None)."""
    totals = {layer: 0.0 for layer in LAYERS}
    for span, own in zip(spans, _self_times(spans)):
        if phase is None or span[PHASE] == phase:
            totals[span[LAYER]] += own
    return totals


def self_time(spans: List[list], name: str, phase: str = "measure") -> float:
    """Summed self time of the ``name`` spans of ``phase``."""
    return sum(
        own
        for span, own in zip(spans, _self_times(spans))
        if span[NAME] == name and span[PHASE] == phase
    )


def total_time(spans: List[list], name: str, phase: str = "measure") -> float:
    """Summed duration of ``name`` spans not nested directly in another ``name``.

    ``compile_canonical`` calls ``compile``; the inner span is not counted
    twice.
    """
    total = 0.0
    for span in spans:
        if span[NAME] != name or span[PHASE] != phase:
            continue
        parent = span[PARENT]
        if parent >= 0 and spans[parent][NAME] == name:
            continue
        total += span[END] - span[START]
    return total


def span_count(spans: Iterable[list], name: str, phase: str = "measure") -> int:
    return sum(1 for s in spans if s[NAME] == name and s[PHASE] == phase)


def span_items(spans: Iterable[list], name: str, phase: str = "measure") -> int:
    return sum(s[COUNT] for s in spans if s[NAME] == name and s[PHASE] == phase)

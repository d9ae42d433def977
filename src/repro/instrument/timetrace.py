"""Hierarchical scoped timing exported as Chrome ``chrome://tracing`` JSON.

Models clang's ``-ftime-trace`` (``llvm/Support/TimeProfiler``): compiler
layers open a :func:`time_trace_scope` around each phase of paper Fig. 1
(preprocess, parse, Sema directive handling, per-function CodeGen, each
mid-end pass, interpretation).  Every scope becomes one
:class:`SpanRecord` whose parent is the innermost scope still open when
it starts, taken from the profiler's open-scope stack — the same record
the compile service ships from its workers and stitches into per-request
traces, and the same renderer (:func:`chrome_trace_events`) for both.

Profiling is *globally* enabled/disabled so that instrumented modules do
not need a profiler handle threaded through every constructor — exactly
how LLVM's ``TimeTraceProfilerInstance`` works.  When disabled,
:func:`time_trace_scope` returns a shared no-op context manager, keeping
the cost of an instrumented call site to one module-global load.
"""

from __future__ import annotations

import itertools
import json
import os
import time
from dataclasses import asdict, dataclass, field
from typing import Iterable, Optional

_span_counter = itertools.count(1)


def new_span_id() -> str:
    """Process-unique span id: ``<pid hex>.<counter hex>`` — unique
    across the parent/worker fleet without coordination."""
    return f"{os.getpid():x}.{next(_span_counter):x}"


@dataclass
class SpanRecord:
    """One completed span.  ``start_ns``/``end_ns`` are monotonic
    timestamps on the *recording* process's clock."""

    trace_id: str
    span_id: str
    parent_id: Optional[str]
    name: str
    detail: str
    start_ns: int
    end_ns: int
    pid: int
    tid: int = 0

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "SpanRecord":
        return cls(**data)


def chrome_trace_events(
    spans: Iterable[SpanRecord],
    origin_ns: int,
    process_names: dict[int, str],
) -> list[dict]:
    """Chrome "X" events for *spans* (``ts`` relative to *origin_ns*,
    span and parent ids in ``args``), sorted so enclosing spans come
    first, then one ``process_name`` row per entry of *process_names*."""
    events = []
    for span in sorted(
        spans, key=lambda s: (s.start_ns, s.start_ns - s.end_ns)
    ):
        args = {"span_id": span.span_id, "parent_id": span.parent_id}
        if span.detail:
            args["detail"] = span.detail
        events.append(
            {
                "ph": "X",
                "pid": span.pid,
                "tid": span.tid,
                "ts": (span.start_ns - origin_ns) / 1000.0,
                "dur": (span.end_ns - span.start_ns) / 1000.0,
                "name": span.name,
                "args": args,
            }
        )
    for pid, name in process_names.items():
        events.append(
            {
                "ph": "M",
                "pid": pid,
                "tid": 0,
                "name": "process_name",
                "args": {"name": name},
            }
        )
    return events


class TimeTraceScope:
    """Context manager recording one span, parented on entry."""

    __slots__ = (
        "profiler",
        "name",
        "detail",
        "_parent",
        "_span_id",
        "_start_ns",
    )

    def __init__(
        self, profiler: "TimeTraceProfiler", name: str, detail: str = ""
    ) -> None:
        self.profiler = profiler
        self.name = name
        self.detail = detail

    def __enter__(self) -> "TimeTraceScope":
        stack = self.profiler.open_scopes
        self._parent = stack[-1] if stack else self.profiler.parent_id
        self._span_id = new_span_id()
        stack.append(self._span_id)
        self._start_ns = time.perf_counter_ns()
        return self

    def __exit__(self, *exc) -> None:
        end_ns = time.perf_counter_ns()
        profiler = self.profiler
        profiler.open_scopes.pop()
        profiler.spans.append(
            SpanRecord(
                profiler.trace_id,
                self._span_id,
                self._parent,
                self.name,
                self.detail,
                self._start_ns,
                end_ns,
                profiler.pid,
            )
        )


class _NullScope:
    """Shared no-op scope returned while tracing is disabled."""

    __slots__ = ()

    def __enter__(self) -> "_NullScope":
        return self

    def __exit__(self, *exc) -> None:
        return None


_NULL_SCOPE = _NullScope()


@dataclass
class TimeTraceProfiler:
    """Collects :class:`SpanRecord` objects and renders Chrome JSON.

    Top-level scopes get ``parent_id`` (a service worker passes the
    attempt span it runs under).  ``granularity_us`` drops spans shorter
    than the threshold from the JSON output (clang's
    ``-ftime-trace-granularity``, default 500us there; 0 here so tests
    see every scope).
    """

    granularity_us: int = 0
    trace_id: str = ""
    parent_id: Optional[str] = None
    spans: list[SpanRecord] = field(default_factory=list)
    open_scopes: list[str] = field(default_factory=list)
    epoch_ns: int = field(default_factory=time.perf_counter_ns)
    pid: int = field(default_factory=os.getpid)

    def scope(self, name: str, detail: str = "") -> TimeTraceScope:
        return TimeTraceScope(self, name, detail)

    def add_span(
        self, name: str, detail: str, start_ns: int, end_ns: int
    ) -> None:
        """Record an interval measured outside a scope, parented like a
        scope opening now."""
        self.spans.append(
            SpanRecord(
                self.trace_id,
                new_span_id(),
                self.open_scopes[-1] if self.open_scopes else self.parent_id,
                name,
                detail,
                start_ns,
                max(start_ns, end_ns),
                self.pid,
            )
        )

    def chrome_trace(self) -> dict:
        """The ``chrome://tracing`` / Perfetto object form."""
        floor_ns = self.granularity_us * 1000
        spans = [s for s in self.spans if s.end_ns - s.start_ns >= floor_ns]
        events = chrome_trace_events(
            spans, self.epoch_ns, {self.pid: "miniclang"}
        )
        events.append(
            {
                "ph": "M",
                "pid": self.pid,
                "tid": 0,
                "name": "thread_name",
                "args": {"name": "Compiler"},
            }
        )
        return {
            "traceEvents": events,
            "beginningOfTime": self.epoch_ns // 1000,
        }

    def to_chrome_json(self, indent: int | None = None) -> str:
        return json.dumps(self.chrome_trace(), indent=indent)


#: the active profiler; ``None`` means tracing is off
_active: Optional[TimeTraceProfiler] = None


def enable_time_trace(
    granularity_us: int = 0,
    trace_id: str = "",
    parent_id: Optional[str] = None,
) -> TimeTraceProfiler:
    """Turn tracing on (idempotent); returns the active profiler."""
    global _active
    if _active is None:
        _active = TimeTraceProfiler(granularity_us, trace_id, parent_id)
    return _active


def disable_time_trace() -> Optional[TimeTraceProfiler]:
    """Turn tracing off; returns the profiler that was collecting (if
    any) so the caller can export its spans."""
    global _active
    profiler, _active = _active, None
    return profiler


def active_time_trace() -> Optional[TimeTraceProfiler]:
    return _active


def time_trace_scope(name: str, detail: str = ""):
    """The instrumentation entry point used throughout the compiler."""
    profiler = _active
    if profiler is None:
        return _NULL_SCOPE
    return TimeTraceScope(profiler, name, detail)

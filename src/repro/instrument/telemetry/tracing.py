"""Cross-process request tracing for the compile service.

Models OpenTelemetry span/context propagation over the repo's existing
``-ftime-trace`` machinery (clang's per-invocation Chrome JSON is the
rendering target; clangd's request tracing is the shape):

* the service parent mints a ``trace_id`` per admitted request and
  builds parent-side spans (admission, queue wait, each attempt, breaker
  decisions, cache lookups) in a :class:`RequestTrace`;
* the ``trace_id`` + parent span id travel to the worker inside the
  :class:`~repro.service.request.WorkPayload`; the worker runs its
  pipeline under a :class:`~repro.instrument.timetrace.TimeTraceProfiler`
  session whose top-level scopes are parented on that span, and ships
  the recorded :class:`~repro.instrument.timetrace.SpanRecord` dicts
  back with a wall/monotonic clock anchor pair;
* the parent aligns worker timestamps onto its own monotonic timeline
  (:func:`clock_offset_ns` — both processes share the machine's wall
  clock, so the offset between their ``perf_counter_ns`` origins is
  observable), clamps children into their parent attempt span, and
  renders ONE Chrome-JSON trace per request with real ``pid`` rows —
  load it in ``about://tracing`` / Perfetto and the request reads
  admission → queue → attempts → worker pipeline stages across
  processes.

Spans carry their parent ids from the moment they open, so nesting is
never reconstructed from timestamps.  Parent and worker spans render
through the one Chrome-JSON renderer,
:func:`~repro.instrument.timetrace.chrome_trace_events`.
"""

from __future__ import annotations

import json
import os
import time
import uuid
from dataclasses import dataclass, field
from typing import Iterable, Optional

from repro.instrument.timetrace import (
    SpanRecord,
    chrome_trace_events,
    new_span_id,
)


def new_trace_id() -> str:
    """A fresh 128-bit-ish trace id (hex, 16 chars is plenty here)."""
    return uuid.uuid4().hex[:16]


def clock_anchor() -> tuple[int, int]:
    """``(wall_ns, perf_ns)`` sampled back-to-back: the pair that lets
    another process map this process's monotonic timestamps onto its
    own timeline via the shared wall clock."""
    return (time.time_ns(), time.perf_counter_ns())


def clock_offset_ns(
    remote_anchor: tuple[int, int], local_anchor: tuple[int, int]
) -> int:
    """Add this to a remote ``perf_counter_ns`` timestamp to express it
    on the local monotonic timeline."""
    remote_wall, remote_perf = remote_anchor
    local_wall, local_perf = local_anchor
    return (remote_wall - remote_perf) - (local_wall - local_perf)


class RequestTrace:
    """Parent-side builder of one request's cross-process trace."""

    def __init__(
        self, trace_id: str, request_id: Optional[str] = None
    ) -> None:
        self.trace_id = trace_id
        self.request_id = request_id
        self.spans: list[SpanRecord] = []
        self.root_span_id = new_span_id()
        self._anchor = clock_anchor()
        self._pid = os.getpid()

    # ------------------------------------------------------------------
    def add_span(
        self,
        name: str,
        start_ns: int,
        end_ns: int,
        detail: str = "",
        parent_id: Optional[str] = None,
        span_id: Optional[str] = None,
    ) -> str:
        """Record one parent-process span (monotonic local timestamps);
        defaults to a child of the root request span."""
        sid = span_id or new_span_id()
        self.spans.append(
            SpanRecord(
                trace_id=self.trace_id,
                span_id=sid,
                parent_id=(
                    parent_id
                    if parent_id is not None
                    else self.root_span_id
                ),
                name=name,
                detail=detail,
                start_ns=start_ns,
                end_ns=max(start_ns, end_ns),
                pid=self._pid,
            )
        )
        return sid

    def close(
        self, name: str, start_ns: int, end_ns: int, detail: str = ""
    ) -> None:
        """Record the root span covering the whole request."""
        self.spans.append(
            SpanRecord(
                trace_id=self.trace_id,
                span_id=self.root_span_id,
                parent_id=None,
                name=name,
                detail=detail,
                start_ns=start_ns,
                end_ns=max(start_ns, end_ns),
                pid=self._pid,
            )
        )

    # ------------------------------------------------------------------
    def merge_worker_spans(
        self,
        span_dicts: Iterable[dict],
        worker_anchor: tuple[int, int],
        parent_span_id: str,
        clamp_start_ns: int,
        clamp_end_ns: int,
    ) -> int:
        """Align a worker's spans onto the parent timeline and adopt
        them under *parent_span_id* (the attempt span).

        The wall/monotonic anchor pair shipped in the
        :class:`~repro.service.request.WorkOutcome` gives the clock
        offset; after shifting, spans are clamped into the attempt
        interval so nesting stays monotonic even when the wall clocks
        disagree by more than the pipe latency.  Returns the number of
        spans adopted.
        """
        offset = clock_offset_ns(worker_anchor, self._anchor)
        adopted = 0
        for data in span_dicts:
            span = SpanRecord.from_dict(data)
            span.start_ns += offset
            span.end_ns += offset
            span.start_ns = min(
                max(span.start_ns, clamp_start_ns), clamp_end_ns
            )
            span.end_ns = min(
                max(span.end_ns, span.start_ns), clamp_end_ns
            )
            if span.parent_id is None:
                span.parent_id = parent_span_id
            self.spans.append(span)
            adopted += 1
        return adopted

    # ------------------------------------------------------------------
    def chrome_trace(self) -> dict:
        """One ``about://tracing`` / Perfetto JSON object for this
        request, with real OS pids and span ids in ``args`` (the ids are
        what the integration tests verify parentage with)."""
        if not self.spans:
            return {"traceEvents": [], "trace_id": self.trace_id}
        roles = {
            pid: (
                "miniclang-serve (parent)"
                if pid == self._pid
                else f"miniclang-worker (pid {pid})"
            )
            for pid in sorted({s.pid for s in self.spans})
        }
        return {
            "traceEvents": chrome_trace_events(
                self.spans, min(s.start_ns for s in self.spans), roles
            ),
            "trace_id": self.trace_id,
            "request_id": self.request_id,
        }

    def to_chrome_json(self, indent: int | None = None) -> str:
        return json.dumps(self.chrome_trace(), indent=indent)


@dataclass
class TraceRecorder:
    """Sink for completed request traces.

    With ``directory`` set (``miniclang-serve -ftrace-requests[=DIR]``)
    every finished request writes ``DIR/<request_id>.trace.json``; the
    in-memory ``traces`` list keeps the most recent ones either way so
    library callers and tests can inspect them without touching disk.
    """

    directory: Optional[str] = None
    keep: int = 64
    traces: list[RequestTrace] = field(default_factory=list)
    written: list[str] = field(default_factory=list)

    def record(self, trace: RequestTrace) -> Optional[str]:
        self.traces.append(trace)
        del self.traces[: -self.keep]
        if self.directory is None:
            return None
        os.makedirs(self.directory, exist_ok=True)
        safe_id = (trace.request_id or trace.trace_id).replace(
            os.sep, "_"
        )
        path = os.path.join(self.directory, f"{safe_id}.trace.json")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(trace.to_chrome_json(indent=1))
        self.written.append(path)
        return path

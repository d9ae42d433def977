"""Request-level telemetry the compile service exports on top of the
compiler's own instruments, modelled on the production observability
stack around clang tooling:

==================  =====================================  ============
Layer               Real-world counterpart                 Module
==================  =====================================  ============
request tracing     OpenTelemetry span/context
                    propagation; clang ``-ftime-trace``
                    per-invocation JSON; clangd request
                    tracing                                ``tracing``
structured events   JSONL access/lifecycle logs keyed by
                    trace id                               ``events``
==================  =====================================  ============

Counters, gauges and histograms (bounded-relative-error quantiles from
one fixed log-linear bucket layout) live in the one registry type,
:class:`repro.instrument.stats.MetricsRegistry`; spans are
:class:`repro.instrument.timetrace.SpanRecord`.  Both sit on the plain
CLI's import path, this package does not: only the service loads it,
and only pays for a layer when its flag (``-ftrace-requests``,
``--log-jsonl``) or config field turns it on.
"""

from repro.instrument.telemetry.events import EventLog, read_jsonl
from repro.instrument.telemetry.tracing import (
    RequestTrace,
    TraceRecorder,
    clock_anchor,
    clock_offset_ns,
    new_trace_id,
)

__all__ = [
    "EventLog",
    "RequestTrace",
    "TraceRecorder",
    "clock_anchor",
    "clock_offset_ns",
    "new_trace_id",
    "read_jsonl",
]

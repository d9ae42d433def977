"""The resilient compile service.

Orchestrates the whole robustness stack over the paper's dual
representation:

* **isolation** — every attempt runs in a pool worker process
  (:mod:`repro.service.pool`); a crash, OOM kill, or hang is contained
  to that process;
* **deadlines** — the parent enforces a wall-clock budget per attempt
  and kills overrunning workers (interpreter fuel only guards the
  guest, not a hung compiler);
* **retry** — worker death, timeout, and ICE attempts are retried with
  exponential backoff + deterministic jitter
  (:mod:`repro.service.retry`);
* **hedging** — an attempt outstanding past ``hedge_delay_s`` gets a
  duplicate dispatched to another worker; first terminal answer wins;
* **circuit breaking** — per-input-fingerprint breakers quarantine
  poison inputs after ``breaker_threshold`` failures, writing a PR 3
  style crash reproducer instead of retrying forever
  (:mod:`repro.service.breaker`);
* **load shedding** — a bounded admission queue turns overload into
  structured ``RESOURCE_EXHAUSTED`` responses
  (:mod:`repro.service.queue`);
* **graceful degradation** — a request that keeps failing on the
  IRBuilder path is transparently retried on the shadow-AST path (and
  vice versa): the paper's two independent implementations of the same
  transformations double as fault-tolerance spares.  Degraded successes
  are tagged (``status == "degraded"``, ``mode_used``);
* **response caching** — with a :class:`repro.cache.CompilationCache`
  attached, deterministic terminal responses (ok / error / degraded)
  are memoized per request fingerprint and replayed without running a
  worker; degraded answers live under a ``#degraded``-tagged key and
  nothing is served or stored while the fingerprint's breaker is not
  closed.  Workers additionally share a per-stage artifact cache
  through the cache's directory (:mod:`repro.cache.stages`);
* **single-flight dedup** — concurrent identical fingerprints collapse
  onto one leader execution; followers park and receive copies of the
  leader's terminal response (``coalesced=True``).

The contract: every admitted request receives exactly one terminal
:class:`~repro.service.request.CompileResponse`.  All decisions feed
``service.*`` statistics and per-request time-trace spans.
"""

from __future__ import annotations

import os
import random
import shlex
import sys
import time
from dataclasses import dataclass, field, replace
from typing import Optional

from repro.cache import CompilationCache, InflightTable, degraded_key
from repro.cache.cache import (
    DEGRADED_HITS,
    SINGLE_FLIGHT_COLLAPSES,
)
from repro.core.crash_recovery import crash_context, write_reproducer
from repro.instrument.stats import MetricsRegistry, get_statistic
from repro.instrument.telemetry import (
    EventLog,
    RequestTrace,
    TraceRecorder,
    new_trace_id,
)
from repro.instrument.timetrace import active_time_trace, new_span_id
from repro.service.breaker import CLOSED, BreakerBoard
from repro.service.pool import WorkerHandle, WorkerPool
from repro.service.queue import AdmissionQueue
from repro.service.request import (
    STATUS_CIRCUIT_OPEN,
    STATUS_DEGRADED,
    STATUS_ERROR,
    STATUS_ICE,
    STATUS_OK,
    STATUS_RESOURCE_EXHAUSTED,
    STATUS_TIMEOUT,
    CompileRequest,
    CompileResponse,
    WorkOutcome,
    WorkPayload,
    other_mode,
)
from repro.service.retry import RetryPolicy
from repro.service.state import ServiceState, load_state, save_state

_OK = get_statistic(
    "service", "ok", "Requests served on the requested representation"
)
_DEGRADED = get_statistic(
    "service",
    "degraded-compiles",
    "Requests served on the fallback representation",
)
_DEGRADED_FALLBACKS = get_statistic(
    "service",
    "degraded-fallbacks",
    "Representation fallbacks attempted (IRBuilder <-> shadow)",
)
_USER_ERRORS = get_statistic(
    "service",
    "user-errors",
    "Terminal responses with user diagnostics / guest failures",
)
_FAILED = get_statistic(
    "service",
    "failed",
    "Terminal internal failures (after retries and degradation)",
)
_HEDGE_WINS = get_statistic(
    "service", "hedge-wins", "Requests resolved by the hedged attempt"
)
_TIMEOUTS = get_statistic(
    "service", "timeouts", "Attempts killed at the wall-clock deadline"
)
_WORKER_LOST = get_statistic(
    "service", "worker-lost", "Attempts lost to a dying worker process"
)
_BREAKER_TRIPS = get_statistic(
    "service", "breaker-trips", "Circuit breakers opened (poison inputs)"
)
_BREAKER_REJECTED = get_statistic(
    "service",
    "breaker-rejected",
    "Requests rejected at admission by an open breaker",
)
_SHED = get_statistic(
    "service", "shed", "Requests shed by the bounded admission queue"
)
_QUARANTINED = get_statistic(
    "service", "quarantined", "Poison inputs quarantined with reproducers"
)
_STALE_RESULTS = get_statistic(
    "service",
    "stale-results",
    "Worker results discarded after the request was already resolved",
)
_DRAINS = get_statistic(
    "service", "drains", "Times the service entered drain mode"
)
_DRAIN_REJECTED = get_statistic(
    "service",
    "drain-rejected",
    "Requests rejected at admission while draining",
)
_DRAIN_SHED = get_statistic(
    "service",
    "drain-shed",
    "Unresolved requests shed at the drain deadline",
)
_WORKER_RECYCLED = get_statistic(
    "service",
    "worker-recycled",
    "Workers preemptively recycled at --worker-max-requests",
)
_HEARTBEAT_RESTARTS = get_statistic(
    "service",
    "worker-heartbeat-restarts",
    "Silently-dead idle workers caught by the heartbeat check",
)
_QUARANTINE_RESTORED = get_statistic(
    "service",
    "quarantine-restored",
    "Quarantined fingerprints restored from a state snapshot",
)
_BUDGET_EXPIRED = get_statistic(
    "service",
    "budget-expired",
    "Requests whose propagated deadline budget ran out before an "
    "attempt could start",
)
_BUDGET_SUPPRESSED = get_statistic(
    "service",
    "budget-suppressed-retries",
    "Retries suppressed because the propagated deadline budget could "
    "not fit another attempt",
)


class PoisonInputError(Exception):
    """Exception façade for quarantine reproducers: the input repeatedly
    took down workers and its circuit breaker opened."""


@dataclass
class ServiceConfig:
    """Tuning knobs; defaults favour interactive batches."""

    workers: int = 2
    queue_capacity: int = 256
    #: default per-attempt wall-clock deadline (seconds)
    deadline_s: float = 30.0
    retry: RetryPolicy = field(default_factory=RetryPolicy)
    #: dispatch a duplicate attempt after this many seconds without an
    #: answer (None disables hedging)
    hedge_delay_s: Optional[float] = None
    breaker_threshold: int = 3
    breaker_cooldown_s: float = 30.0
    allow_degraded: bool = True
    quarantine_dir: Optional[str] = field(
        default_factory=lambda: os.environ.get(
            "MINICLANG_QUARANTINE_DIR", "service-quarantine"
        )
    )
    #: the compilation cache: terminal responses are memoized in it,
    #: and when it has a disk tier every worker roots its per-stage
    #: artifact cache at the same directory, with the same durability
    #: (None disables caching)
    cache: Optional[CompilationCache] = None
    #: coalesce concurrent identical requests onto one execution
    single_flight: bool = True
    #: directory for durable state snapshots (breaker board + poison
    #: quarantine); None disables persistence
    state_dir: Optional[str] = None
    #: preemptively recycle a worker after this many completed attempts
    #: (gunicorn's ``max_requests`` leak amnesty); None disables
    worker_max_requests: Optional[int] = None
    #: liveness-check idle workers this often (0 disables)
    heartbeat_interval_s: float = 5.0
    #: sink for one merged cross-process Chrome trace per request
    #: (``miniclang-serve -ftrace-requests``); None disables tracing
    tracer: Optional[TraceRecorder] = None
    #: structured JSONL request-lifecycle log (``--log-jsonl``)
    event_log: Optional[EventLog] = None
    #: metrics registry to record into; a private one is created when
    #: None (inject a shared registry to aggregate across services)
    metrics: Optional[MetricsRegistry] = None


class _RequestState:
    """Parent-side lifecycle of one admitted request."""

    def __init__(self, request: CompileRequest, now: float) -> None:
        self.request = request
        self.invocation = request.invocation()
        self.fingerprint = request.fingerprint()
        # Deterministic per-input jitter: same batch, same timing.
        self.rng = random.Random(int(self.fingerprint, 16))
        self.mode = request.mode
        self.degraded = False
        self.attempts = 0  # total attempts started
        self.mode_attempts = 0  # attempts started on the current mode
        self.outstanding: dict[int, WorkerHandle] = {}
        self.attempt_started_at: dict[int, float] = {}
        self.failures: list[tuple[int, str, str, str]] = []
        self.next_retry_at: Optional[float] = now
        self.hedged = False
        self.hedge_attempt: Optional[int] = None
        self.response: Optional[CompileResponse] = None
        self.admitted_at = now
        #: absolute wall point the propagated deadline budget runs out
        #: (None = no budget attached)
        self.budget_deadline_at: Optional[float] = (
            now + request.budget_s
            if request.budget_s is not None
            else None
        )
        self.start_ns = time.perf_counter_ns()
        #: admission -> first dispatch (stays 0.0 for rejects/replays)
        self.queue_wait_s = 0.0
        #: the request's cross-process trace (None when tracing is off)
        self.trace: Optional[RequestTrace] = None
        #: attempt index -> (span id, start perf_ns) for open attempts
        self.attempt_spans: dict[int, tuple[str, int]] = {}

    @property
    def resolved(self) -> bool:
        return self.response is not None


class CompileService:
    """A persistent pool-backed compile service.

    Use as a context manager, or call :meth:`shutdown` explicitly::

        with CompileService(ServiceConfig(workers=4)) as svc:
            responses = svc.process_batch(requests)
    """

    def __init__(self, config: Optional[ServiceConfig] = None) -> None:
        self.config = config or ServiceConfig()
        self.pool = WorkerPool(self.config.workers)
        self.metrics = (
            self.config.metrics
            if self.config.metrics is not None
            else MetricsRegistry()
        )
        self.events = self.config.event_log
        self.tracer = self.config.tracer
        self.cache = self.config.cache
        self._init_instruments()
        self._queue: AdmissionQueue[_RequestState] = AdmissionQueue(
            self.config.queue_capacity,
            on_change=self._on_queue_change,
        )
        self._breakers = BreakerBoard(
            self.config.breaker_threshold,
            self.config.breaker_cooldown_s,
            on_transition=self._on_breaker_transition,
        )
        self._active: list[_RequestState] = []
        #: observer called with every terminal CompileResponse, right
        #: after it is recorded — the shard router resolves its
        #: per-request futures here.  Fires synchronously, including
        #: for rejects produced inside :meth:`submit`.
        self.on_response = None
        self._seq = 0
        self._clock = time.monotonic
        self._inflight: InflightTable[_RequestState] = InflightTable()
        #: fingerprint -> quarantine metadata, persisted via state_dir
        self._quarantined: dict[str, dict] = {}
        self._draining = False
        self._drain_deadline_at: Optional[float] = None
        self._last_heartbeat_at = self._clock()
        if self.config.state_dir:
            self._restore_state()

    # ------------------------------------------------------------------
    # Durable state
    # ------------------------------------------------------------------
    @property
    def quarantined(self) -> dict[str, dict]:
        """Fingerprint -> metadata of currently quarantined inputs."""
        return dict(self._quarantined)

    def _restore_state(self) -> None:
        """Adopt the snapshot under ``state_dir``, if any: OPEN
        breakers come back open (aged past their cooldown they present
        as HALF_OPEN and re-enter probing) and quarantined fingerprints
        are rejected at admission without re-executing anything."""
        loaded = load_state(
            self.config.state_dir,
            diagnostic=lambda msg: print(
                f"miniclang-serve: warning: {msg}", file=sys.stderr
            ),
        )
        if loaded is None:
            return
        restored = self._breakers.restore_state(loaded.breakers)
        self._quarantined = dict(loaded.quarantined)
        _QUARANTINE_RESTORED.inc(len(self._quarantined))
        self._emit(
            "state-restored",
            breakers=restored,
            quarantined=len(self._quarantined),
            saved_at=loaded.saved_at,
        )

    def snapshot_state(self) -> Optional[str]:
        """Persist breakers + quarantine; returns the snapshot path
        (None when no ``state_dir`` is configured or the write failed —
        losing a snapshot never takes the service down with it)."""
        if not self.config.state_dir:
            return None
        state = ServiceState(
            breakers=self._breakers.export_state(),
            quarantined=dict(self._quarantined),
        )
        try:
            path = save_state(self.config.state_dir, state)
        except OSError as err:
            print(
                f"miniclang-serve: warning: state snapshot failed: {err}",
                file=sys.stderr,
            )
            return None
        self._emit(
            "state-snapshot",
            path=path,
            breakers=len(state.breakers),
            quarantined=len(state.quarantined),
        )
        return path

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    @property
    def draining(self) -> bool:
        return self._draining

    def begin_drain(self, deadline_s: float) -> None:
        """Enter drain mode: admission closes (new submissions get a
        structured ``resource-exhausted`` answer), in-flight and queued
        work gets until the drain deadline to finish, then is shed.
        Idempotent; the first call starts the deadline clock."""
        if self._draining:
            return
        self._draining = True
        self._drain_deadline_at = self._clock() + max(0.0, deadline_s)
        _DRAINS.inc()
        self._emit(
            "drain-begin",
            deadline_s=deadline_s,
            queued=len(self._queue),
            active=len(self._active),
        )

    def _shed_for_drain(self, now: float) -> None:
        """Drain deadline passed: kill outstanding attempts and give
        every unresolved request a terminal answer — shutting down must
        shed structuredly, never strand silently."""
        while True:
            state = self._queue.pop()
            if state is None:
                break
            self._active.append(state)
        for state in list(self._active):
            if state.resolved:
                continue
            for attempt, worker in list(state.outstanding.items()):
                self.pool.restart(worker)
                self._close_attempt_span(state, attempt, "drain-shed")
            state.outstanding.clear()
            _DRAIN_SHED.inc()
            self._resolve(
                state,
                CompileResponse(
                    request_id=state.request.request_id,
                    status=STATUS_RESOURCE_EXHAUSTED,
                    detail=(
                        "shed at the drain deadline: service shutting "
                        "down; resubmit to a live instance"
                    ),
                    mode_used=None,
                ),
                now,
            )

    def _check_worker_health(self, now: float) -> None:
        """Heartbeat idle workers (a silently-dead process would
        otherwise only surface on its next dispatch) and recycle any
        past the ``worker_max_requests`` amnesty once idle."""
        limit = self.config.worker_max_requests
        if limit:
            for worker in self.pool.idle_workers():
                if worker.jobs_done >= limit:
                    self.pool.restart(worker)
                    _WORKER_RECYCLED.inc()
                    self._emit(
                        "worker-recycled",
                        worker=worker.worker_id,
                        jobs_done=worker.jobs_done,
                    )
        interval = self.config.heartbeat_interval_s
        if not interval or now - self._last_heartbeat_at < interval:
            return
        self._last_heartbeat_at = now
        for worker in self.pool.idle_workers():
            if not worker.proc.is_alive():
                self.pool.restart(worker)
                _HEARTBEAT_RESTARTS.inc()
                self._emit(
                    "worker-heartbeat-restart",
                    worker=worker.worker_id,
                )

    # ------------------------------------------------------------------
    # Telemetry plumbing
    # ------------------------------------------------------------------
    def _init_instruments(self) -> None:
        """Register this service's instruments in the metrics registry.

        Every histogram shares the one fixed bucket layout, so snapshots
        from any service (or worker) merge exactly, bucket by bucket.
        Counters with a dotted name double as ``-print-stats``
        statistics (and export as ``service_*_total``).
        """
        m = self.metrics
        self._m_requests = m.counter(
            "service.requests", "Requests submitted to the compile service"
        )
        self._m_responses = m.counter(
            "service.responses", "Terminal responses produced", ("status",)
        )
        self._m_latency = m.histogram(
            "service_request_duration_seconds",
            "End-to-end latency by terminal outcome "
            "(ok/degraded/error/.../cached/coalesced/shed)",
            ("outcome",),
        )
        self._m_queue_wait = m.histogram(
            "service_queue_wait_seconds",
            "Admission-to-first-dispatch wait",
        )
        self._m_queue_depth = m.gauge(
            "service_queue_depth", "Requests queued, not yet dispatched"
        )
        self._m_in_flight = m.gauge(
            "service_in_flight", "Requests dispatched, not yet resolved"
        )
        self._m_breakers_open = m.gauge(
            "service_breakers_open",
            "Circuit breakers currently open (quarantined fingerprints)",
        )
        self._m_retries = m.counter(
            "service.retries", "Attempt retries scheduled (with backoff)"
        )
        self._m_hedges = m.counter(
            "service.hedges", "Hedged duplicate attempts dispatched"
        )
        self._m_breaker = m.counter(
            "service_breaker_transitions_total",
            "Circuit-breaker state transitions",
            ("from", "to"),
        )
        self._m_cache_events = m.counter(
            "service_cache_events_total",
            "Response-cache outcomes by tier",
            ("tier",),
        )
        self._m_attempts = m.counter(
            "service_attempts_total",
            "Worker attempts dispatched by mode",
            ("mode",),
        )

    def _emit(self, event: str, **fields) -> None:
        if self.events is not None:
            self.events.emit(event, **fields)

    def _on_queue_change(self, queued: int, in_flight: int) -> None:
        self._m_queue_depth.set(queued)
        self._m_in_flight.set(in_flight)

    def _on_breaker_transition(
        self, fingerprint: str, old: str, new: str
    ) -> None:
        self._m_breaker.labels(**{"from": old, "to": new}).inc()
        self._m_breakers_open.set(self._breakers.open_count)
        if new == CLOSED:
            # A successful half-open probe is the parole hearing: the
            # input demonstrably works again, lift its quarantine.
            self._quarantined.pop(fingerprint, None)
        self._emit(
            "breaker-transition",
            fingerprint=fingerprint,
            old=old,
            new=new,
        )

    # ------------------------------------------------------------------
    # Admission
    # ------------------------------------------------------------------
    def submit(
        self, request: CompileRequest
    ) -> Optional[CompileResponse]:
        """Admit one request.  Returns a terminal response immediately
        when the request is rejected (open breaker, shed load) or
        replayed from the cache; None when it was queued — drain to get
        its response (the ``on_response`` hook sees every answer)."""
        return self._admit(request).response

    def _admit(self, request: CompileRequest) -> _RequestState:
        """:meth:`submit`, returning the request's state; its
        ``response`` is set once the request resolves."""
        self._m_requests.inc()
        self._seq += 1
        if request.request_id is None:
            request.request_id = f"r{self._seq:05d}"
        now = self._clock()
        state = _RequestState(request, now)
        if self._draining:
            _DRAIN_REJECTED.inc()
            self._emit(
                "drain-reject", request_id=request.request_id
            )
            self._reject(
                state,
                STATUS_RESOURCE_EXHAUSTED,
                "service draining: admission closed; resubmit to a "
                "live instance",
            )
            return state
        if request.budget_s is not None and request.budget_s <= 0:
            # Propagated-deadline hygiene: a caller whose budget is
            # already spent gets an instant answer instead of burning a
            # worker on a result nobody is waiting for.
            _BUDGET_EXPIRED.inc()
            self._emit(
                "budget-expired",
                request_id=request.request_id,
                stage="admission",
            )
            self._reject(
                state,
                STATUS_TIMEOUT,
                "deadline budget exhausted before admission "
                f"({request.budget_s:.3f}s remaining)",
            )
            return state
        if self.tracer is not None:
            # Mint the trace context at admission (or join one the
            # caller pre-set, OpenTelemetry-style); every decision from
            # here on lands in this request's merged trace.
            if request.trace_id is None:
                request.trace_id = new_trace_id()
            state.trace = RequestTrace(
                request.trace_id, request.request_id
            )
        self._emit(
            "submit",
            request_id=request.request_id,
            trace_id=request.trace_id,
            fingerprint=state.fingerprint,
            action=request.action,
            mode=request.mode,
        )
        breaker = self._breakers.get(state.fingerprint)
        # The breaker is consulted before the cache on purpose: a
        # quarantined fingerprint must be rejected, never answered from
        # a cache entry recorded back when it was healthy, and a
        # half-open probe must actually run.
        if breaker.state == CLOSED and self.cache is not None:
            lookup_start = time.perf_counter_ns()
            response = self._serve_from_cache(state)
            if state.trace is not None:
                state.trace.add_span(
                    "cache-lookup",
                    lookup_start,
                    time.perf_counter_ns(),
                    detail="hit" if response is not None else "miss",
                )
            if response is not None:
                return state
        decision_start = time.perf_counter_ns()
        allowed = breaker.allow()
        if state.trace is not None:
            state.trace.add_span(
                "breaker-decision",
                decision_start,
                time.perf_counter_ns(),
                detail=f"state={breaker.state} allowed={allowed}",
            )
        if not allowed:
            _BREAKER_REJECTED.inc()
            self._emit(
                "breaker-reject",
                request_id=request.request_id,
                trace_id=request.trace_id,
                fingerprint=state.fingerprint,
            )
            self._reject(
                state,
                STATUS_CIRCUIT_OPEN,
                "circuit breaker open for this input fingerprint "
                f"({state.fingerprint}): quarantined as poison",
            )
            return state
        if self.config.single_flight:
            # Single-flight: an identical request already in flight
            # makes this one a follower — it parks, runs nothing, and
            # receives a copy of the leader's terminal response.
            if self._inflight.leader(state.fingerprint) is not None:
                self._inflight.follow(state.fingerprint, state)
                SINGLE_FLIGHT_COLLAPSES.inc()
                self._emit(
                    "coalesce-follow",
                    request_id=request.request_id,
                    trace_id=request.trace_id,
                    fingerprint=state.fingerprint,
                )
                return state
        if not self._queue.offer(state):
            _SHED.inc()
            self._reject(
                state,
                STATUS_RESOURCE_EXHAUSTED,
                "admission queue over capacity "
                f"({self._queue.capacity}); retry later",
            )
            return state
        if self.config.single_flight:
            self._inflight.lead(state.fingerprint, state)
        return state

    def _serve_from_cache(
        self, state: _RequestState
    ) -> Optional[CompileResponse]:
        """Replay a memoized terminal response, if one exists.  The
        degraded-tagged key is consulted only as a fallback and only
        when degradation is allowed for this request."""
        assert self.cache is not None
        tier = "response-hit"
        data = self.cache.get_response(state.fingerprint)
        if (
            data is None
            and self.config.allow_degraded
            and state.request.allow_degraded
        ):
            data = self.cache.get_response(
                degraded_key(state.fingerprint)
            )
            if data is not None:
                DEGRADED_HITS.inc()
                tier = "degraded-hit"
        if data is None:
            self._m_cache_events.labels(tier="miss").inc()
            return None
        self._m_cache_events.labels(tier=tier).inc()
        response = CompileResponse.from_dict(data)
        response.request_id = state.request.request_id
        response.cache_hit = True
        # Attempt accounting describes *this* request's serving cost:
        # a replay burned no workers regardless of what the original
        # execution took.
        response.attempts = 0
        response.retries = 0
        response.hedged = False
        response.duration_s = self._clock() - state.admitted_at
        self._record_response(state, response)
        return response

    def _reject(
        self, state: _RequestState, status: str, detail: str
    ) -> None:
        self._record_response(
            state,
            CompileResponse(
                request_id=state.request.request_id,
                status=status,
                detail=detail,
                mode_used=None,
            ),
        )

    # ------------------------------------------------------------------
    # The event loop
    # ------------------------------------------------------------------
    @property
    def pending(self) -> int:
        """Admitted requests without a terminal response yet."""
        return len(self._queue) + len(self._active)

    @property
    def admission_queue(self) -> AdmissionQueue:
        """The bounded admission queue (observer hook: ``on_change``)."""
        return self._queue

    @property
    def breaker_board(self) -> BreakerBoard:
        """The per-fingerprint breaker board (hook: ``on_transition``)."""
        return self._breakers

    def step(self, extra_conns=()) -> list:
        """One event-loop iteration: health checks, dispatch, one
        bounded wait, deadline and hedge enforcement.

        Returns the members of *extra_conns* that became readable
        during the wait — a long-lived caller (the network shard
        router) hands in its inbox wakeup here so new submissions
        interrupt the worker wait instead of waiting out the poll
        timeout.  Safe to call with nothing pending: it degrades to a
        bounded sleep on *extra_conns*."""
        now = self._clock()
        if (
            self._drain_deadline_at is not None
            and now >= self._drain_deadline_at
        ):
            self._shed_for_drain(now)
            return []
        self._check_worker_health(now)
        self._start_ready(now)
        timeout = self._poll_timeout(self._clock())
        if self._drain_deadline_at is not None:
            timeout = min(
                timeout,
                max(0.0, self._drain_deadline_at - self._clock()),
            )
        ready_workers, ready_extra = self.pool.wait(
            timeout, extra_conns=extra_conns
        )
        for worker in ready_workers:
            self._on_worker_ready(worker)
        now = self._clock()
        self._enforce_deadlines(now)
        self._maybe_hedge(now)
        return ready_extra

    def drain(self) -> None:
        """Run until every admitted request has a terminal response.

        In drain mode (:meth:`begin_drain`) the loop additionally
        enforces the drain deadline: whatever has not resolved by then
        is shed with a structured answer and the loop exits."""
        while self.pending:
            self.step()

    def process_batch(
        self, requests: list[CompileRequest]
    ) -> list[CompileResponse]:
        """Submit *requests*, drain, and return responses in order."""
        states = [self._admit(request) for request in requests]
        self.drain()
        return [state.response for state in states]

    # ------------------------------------------------------------------
    def _start_ready(self, now: float) -> None:
        """Dispatch runnable work onto idle workers."""
        while self.pool.idle_workers():
            state = next(
                (
                    s
                    for s in self._active
                    if not s.resolved
                    and not s.outstanding
                    and s.next_retry_at is not None
                    and s.next_retry_at <= now
                ),
                None,
            )
            if state is None:
                state = self._queue.pop()
                if state is None:
                    return
                state.next_retry_at = now
                self._active.append(state)
            if (
                state.budget_deadline_at is not None
                and now >= state.budget_deadline_at
            ):
                # The budget ran out while the request sat queued (or
                # between retries): answer now, dispatch nothing.
                _BUDGET_EXPIRED.inc()
                self._emit(
                    "budget-expired",
                    request_id=state.request.request_id,
                    stage="dispatch",
                )
                self._resolve(
                    state,
                    CompileResponse(
                        request_id=state.request.request_id,
                        status=STATUS_TIMEOUT,
                        detail=(
                            "deadline budget exhausted before dispatch "
                            f"({state.request.budget_s:.3f}s granted)"
                        ),
                        mode_used=None,
                        degraded=state.degraded,
                    ),
                    now,
                )
                continue
            if not self._dispatch(state, now):
                # The chosen idle worker's pipe was dead; it has been
                # replaced — loop and try again with the fresh worker.
                continue

    def _dispatch(
        self, state: _RequestState, now: float, hedge: bool = False
    ) -> bool:
        idle = self.pool.idle_workers()
        if not idle:
            return False
        worker = idle[0]
        request = state.request
        attempt = state.attempts
        # The attempt span id is allocated *before* dispatch so the
        # worker can parent its pipeline spans under it; the span itself
        # is recorded when the attempt completes (_close_attempt_span).
        attempt_span_id = (
            new_span_id() if state.trace is not None else None
        )
        cache = self.cache
        payload = WorkPayload(
            request_id=request.request_id,
            attempt=attempt,
            source=request.source,
            action=request.action,
            invocation=replace(
                state.invocation,
                enable_irbuilder=state.mode == "irbuilder",
            ),
            inject_faults=request.faults_for_attempt(attempt),
            # Workers share the cache's disk tier through its directory.
            cache_dir=cache.directory if cache is not None else None,
            cache_durable=cache is not None
            and cache.disk is not None
            and cache.disk.durable,
            trace_id=(
                request.trace_id if state.trace is not None else None
            ),
            parent_span_id=attempt_span_id,
        )
        if not worker.send(payload):
            self.pool.restart(worker)
            return False
        deadline = (
            request.deadline_s
            if request.deadline_s is not None
            else self.config.deadline_s
        )
        if state.budget_deadline_at is not None:
            # Deadline propagation: no attempt may outlive what is left
            # of the caller's end-to-end budget.
            deadline = min(
                deadline, max(0.0, state.budget_deadline_at - now)
            )
        if attempt == 0:
            state.queue_wait_s = max(0.0, now - state.admitted_at)
            self._m_queue_wait.observe(state.queue_wait_s)
            if state.trace is not None:
                state.trace.add_span(
                    "queue-wait", state.start_ns, time.perf_counter_ns()
                )
        if attempt_span_id is not None:
            state.attempt_spans[attempt] = (
                attempt_span_id,
                time.perf_counter_ns(),
            )
        state.attempts += 1
        state.mode_attempts += 1
        state.outstanding[attempt] = worker
        state.attempt_started_at[attempt] = now
        state.next_retry_at = None
        worker.busy = (state, attempt, now + deadline)
        if hedge:
            state.hedged = True
            state.hedge_attempt = attempt
            self._m_hedges.inc()
        self._m_attempts.labels(mode=state.mode).inc()
        self._emit(
            "dispatch",
            request_id=request.request_id,
            trace_id=request.trace_id,
            attempt=attempt,
            mode=state.mode,
            worker=worker.worker_id,
            hedge=hedge or None,
            faults=list(payload.inject_faults) or None,
        )
        return True

    def _poll_timeout(self, now: float) -> float:
        """Sleep budget until the next timed decision is due."""
        candidates: list[float] = []
        for worker in self.pool.busy_workers():
            candidates.append(worker.busy[2])  # attempt deadline
        # Retry/hedge timers only matter while a worker is free to take
        # the dispatch; otherwise the wake-up signal is a result or a
        # deadline, both covered above (avoids a busy-poll when a due
        # retry has nowhere to run).
        if self.pool.idle_workers():
            hedge_delay = self.config.hedge_delay_s
            for state in self._active:
                if state.resolved:
                    continue
                if (
                    state.next_retry_at is not None
                    and not state.outstanding
                ):
                    candidates.append(state.next_retry_at)
                if (
                    hedge_delay is not None
                    and state.outstanding
                    and not state.hedged
                ):
                    earliest = min(
                        state.attempt_started_at[a]
                        for a in state.outstanding
                    )
                    candidates.append(earliest + hedge_delay)
        if not candidates:
            return 0.05
        return min(max(min(candidates) - now, 0.0), 0.5)

    # ------------------------------------------------------------------
    # Attempt completion
    # ------------------------------------------------------------------
    def _close_attempt_span(
        self,
        state: _RequestState,
        attempt: int,
        detail: str,
        outcome: Optional[WorkOutcome] = None,
    ) -> None:
        """Record the attempt span opened at dispatch and, when the
        worker shipped pipeline spans back, align them onto the parent
        timeline and adopt them under it."""
        entry = state.attempt_spans.pop(attempt, None)
        if entry is None or state.trace is None:
            return
        span_id, started_ns = entry
        end_ns = time.perf_counter_ns()
        state.trace.add_span(
            f"attempt-{attempt}",
            started_ns,
            end_ns,
            detail=detail,
            span_id=span_id,
        )
        if outcome is not None and outcome.spans:
            state.trace.merge_worker_spans(
                outcome.spans,
                (outcome.wall_anchor_ns, outcome.perf_anchor_ns),
                span_id,
                started_ns,
                end_ns,
            )

    def _on_worker_ready(self, worker: WorkerHandle) -> None:
        state, attempt, _deadline = worker.busy
        now = self._clock()
        died = False
        outcome: Optional[WorkOutcome] = None
        try:
            outcome = worker.conn.recv()
            worker.busy = None
            worker.jobs_done += 1
        except (EOFError, OSError):
            self.pool.restart(worker)
            died = True
        state.outstanding.pop(attempt, None)
        if outcome is not None:
            # The worker's per-attempt registry delta: its compiler
            # statistics and attempt metrics.  Merged for EVERY received
            # outcome — failed and stale attempts did real compiler work
            # too, and dropping their counters made -print-stats
            # undercount.
            self.metrics.merge(outcome.metrics)
            self._emit(
                "attempt-complete",
                request_id=state.request.request_id,
                trace_id=state.request.trace_id,
                attempt=attempt,
                kind=outcome.kind,
                duration_s=round(outcome.duration_s, 6),
                worker_pid=outcome.pid or None,
                stale=state.resolved or None,
            )
        if state.resolved:
            _STALE_RESULTS.inc()
            return
        if died:
            _WORKER_LOST.inc()
            self._close_attempt_span(state, attempt, "worker-lost")
            self._emit(
                "worker-lost",
                request_id=state.request.request_id,
                trace_id=state.request.trace_id,
                attempt=attempt,
            )
            self._attempt_failed(
                state,
                attempt,
                "worker-lost",
                "worker process died unexpectedly (broken pipe)",
                now,
            )
            return
        assert outcome is not None
        self._close_attempt_span(state, attempt, outcome.kind, outcome)
        if outcome.kind == "ok":
            self._attempt_succeeded(state, attempt, outcome, now)
        elif outcome.kind in ("compile-error", "guest-error", "timeout"):
            # Deterministic user-side failures: terminal, never retried
            # — they would fail identically on every worker and mode.
            # "timeout" here is the *guest* guardrail (fuel / in-guest
            # wall clock), a property of the program; only the parent's
            # per-attempt deadline (_enforce_deadlines) is retryable
            # infrastructure trouble.
            if outcome.kind == "timeout":
                _TIMEOUTS.inc()
                status = STATUS_TIMEOUT
            else:
                _USER_ERRORS.inc()
                status = STATUS_ERROR
            self._resolve(
                state,
                CompileResponse(
                    request_id=state.request.request_id,
                    status=status,
                    exit_code=outcome.exit_code,
                    diagnostics=outcome.diagnostics,
                    detail=outcome.detail,
                    mode_used=state.mode,
                    degraded=state.degraded,
                ),
                now,
            )
        else:  # "ice"
            self._attempt_failed(
                state,
                attempt,
                outcome.kind,
                outcome.detail or outcome.diagnostics,
                now,
            )

    def _attempt_succeeded(
        self,
        state: _RequestState,
        attempt: int,
        outcome: WorkOutcome,
        now: float,
    ) -> None:
        if state.hedged and attempt == state.hedge_attempt:
            _HEDGE_WINS.inc()
        self._breakers.get(state.fingerprint).record_success()
        if state.degraded:
            _DEGRADED.inc()
            status = STATUS_DEGRADED
            detail = (
                f"degraded: fell back from {state.request.mode} to "
                f"{state.mode} after "
                f"{len(state.failures)} failed attempt(s)"
            )
        else:
            _OK.inc()
            status = STATUS_OK
            detail = ""
        self._resolve(
            state,
            CompileResponse(
                request_id=state.request.request_id,
                status=status,
                output=outcome.output,
                exit_code=outcome.exit_code,
                diagnostics=outcome.diagnostics,
                detail=detail,
                mode_used=state.mode,
                degraded=state.degraded,
            ),
            now,
        )

    def _attempt_failed(
        self,
        state: _RequestState,
        attempt: int,
        kind: str,
        detail: str,
        now: float,
    ) -> None:
        state.failures.append((attempt, state.mode, kind, detail))
        breaker = self._breakers.get(state.fingerprint)
        if breaker.record_failure():
            _BREAKER_TRIPS.inc()
            self._quarantine(state, now)
            return
        if state.outstanding:
            return  # a sibling (hedge) attempt may still win
        retry = self.config.retry
        can_degrade = (
            self.config.allow_degraded
            and state.request.allow_degraded
            and not state.degraded
        )
        # While a representation fallback is still available, reserve
        # the last slot of the attempt budget for it: a mode-specific
        # deterministic failure must reach the other representation
        # *before* the circuit breaker (threshold == max_attempts by
        # default) writes the input off as poison.
        budget = (
            max(1, retry.max_attempts - 1)
            if can_degrade
            else retry.max_attempts
        )
        delay = retry.backoff(state.mode_attempts - 1, state.rng)
        # Deadline propagation: a retry whose backoff alone would land
        # past the caller's remaining budget is pointless work — the
        # caller has given up by then.  Suppress it and fall through to
        # degradation (an immediate dispatch may still fit) or the
        # terminal answer.
        budget_blocked = (
            state.budget_deadline_at is not None
            and now + delay >= state.budget_deadline_at
        )
        if state.mode_attempts < budget and budget_blocked:
            _BUDGET_SUPPRESSED.inc()
            self._emit(
                "budget-suppressed-retry",
                request_id=state.request.request_id,
                trace_id=state.request.trace_id,
                attempt=attempt,
                delay_s=round(delay, 6),
            )
        if state.mode_attempts < budget and not budget_blocked:
            state.next_retry_at = now + delay
            self._m_retries.inc()
            self._emit(
                "retry",
                request_id=state.request.request_id,
                trace_id=state.request.trace_id,
                attempt=attempt,
                kind=kind,
                delay_s=round(delay, 6),
            )
            return
        if can_degrade:
            # Graceful degradation: the other representation of the
            # same transformations serves as the fallback implementation.
            state.degraded = True
            from_mode = state.mode
            state.mode = other_mode(state.mode)
            state.mode_attempts = 0
            state.next_retry_at = now
            _DEGRADED_FALLBACKS.inc()
            self._emit(
                "degrade",
                request_id=state.request.request_id,
                trace_id=state.request.trace_id,
                from_mode=from_mode,
                to_mode=state.mode,
            )
            return
        _FAILED.inc()
        budget_cut = budget_blocked and state.mode_attempts < budget
        status = (
            STATUS_TIMEOUT
            if kind == "timeout" or budget_cut
            else STATUS_ICE
        )
        summary = "; ".join(
            f"attempt {a} [{mode}] {k}" for a, mode, k, _ in state.failures
        )
        if budget_cut:
            summary += "; remaining retries suppressed by deadline budget"
        self._resolve(
            state,
            CompileResponse(
                request_id=state.request.request_id,
                status=status,
                detail=f"{detail}\nfailure history: {summary}",
                mode_used=state.mode,
                degraded=state.degraded,
            ),
            now,
        )

    # ------------------------------------------------------------------
    # Deadlines and hedging
    # ------------------------------------------------------------------
    def _enforce_deadlines(self, now: float) -> None:
        for worker in self.pool.busy_workers():
            state, attempt, deadline_at = worker.busy
            if now < deadline_at:
                continue
            self.pool.restart(worker)
            state.outstanding.pop(attempt, None)
            if state.resolved:
                continue  # straggler of an already-resolved request
            _TIMEOUTS.inc()
            self._close_attempt_span(state, attempt, "deadline-killed")
            self._emit(
                "deadline-kill",
                request_id=state.request.request_id,
                trace_id=state.request.trace_id,
                attempt=attempt,
            )
            self._attempt_failed(
                state,
                attempt,
                "timeout",
                f"attempt {attempt} exceeded its "
                f"{deadline_at - state.attempt_started_at[attempt]:.1f}s "
                "wall-clock deadline (worker killed)",
                now,
            )

    def _maybe_hedge(self, now: float) -> None:
        hedge_delay = self.config.hedge_delay_s
        if hedge_delay is None:
            return
        for state in self._active:
            if (
                state.resolved
                or state.hedged
                or len(state.outstanding) != 1
            ):
                continue
            started = min(
                state.attempt_started_at[a] for a in state.outstanding
            )
            if now - started < hedge_delay:
                continue
            if not self.pool.idle_workers():
                return
            self._dispatch(state, now, hedge=True)

    # ------------------------------------------------------------------
    # Resolution
    # ------------------------------------------------------------------
    def _quarantine(self, state: _RequestState, now: float) -> None:
        """Stop retrying a poison input: write a reproducer, answer
        ``circuit-open``."""
        request = state.request
        reproducer: Optional[str] = None
        history = "".join(
            f"attempt {a} [{mode}] {kind}: {detail}\n"
            for a, mode, kind, detail in state.failures
        )
        if self.config.quarantine_dir:
            # The reproducer directory stores the source as repro.c.
            argv = replace(state.invocation, filename="repro.c").to_argv()
            if request.action == "run":
                argv.insert(0, "--run")
            invocation = (
                "miniclang " + shlex.join(argv)
                + "  # quarantined poison input "
                + f"(fingerprint {state.fingerprint})"
            )
            exc = PoisonInputError(
                f"input {state.fingerprint} failed "
                f"{len(state.failures)} attempt(s); breaker opened"
            )
            with crash_context(
                request.source,
                request.filename,
                invocation,
                self.config.quarantine_dir,
            ):
                reproducer = write_reproducer(
                    "service-quarantine", exc, history
                )
        _QUARANTINED.inc()
        self._quarantined[state.fingerprint] = {
            "filename": request.filename,
            "failures": len(state.failures),
            "reproducer": reproducer,
        }
        self._emit(
            "quarantine",
            request_id=request.request_id,
            trace_id=request.trace_id,
            fingerprint=state.fingerprint,
            failures=len(state.failures),
            reproducer=reproducer,
        )
        self._resolve(
            state,
            CompileResponse(
                request_id=request.request_id,
                status=STATUS_CIRCUIT_OPEN,
                detail=(
                    "circuit breaker opened after "
                    f"{len(state.failures)} failed attempt(s); "
                    "input quarantined\n" + history.rstrip("\n")
                ),
                mode_used=state.mode,
                degraded=state.degraded,
                reproducer_path=reproducer,
            ),
            now,
        )

    def _resolve(
        self,
        state: _RequestState,
        response: CompileResponse,
        now: float,
    ) -> None:
        response.attempts = state.attempts
        response.retries = max(
            0, state.attempts - 1 - (1 if state.hedged else 0)
        )
        response.hedged = state.hedged
        response.duration_s = now - state.admitted_at
        self._queue.release()
        self._active.remove(state)
        self._record_response(state, response)
        self._maybe_cache_store(state, response)
        if self.config.single_flight:
            for follower in self._inflight.resolve(
                state.fingerprint, state
            ):
                fanned = replace(
                    response,
                    request_id=follower.request.request_id,
                    coalesced=True,
                    # the follower itself burned no attempts: the
                    # leader's execution cost is on the leader's row
                    attempts=0,
                    retries=0,
                    hedged=False,
                    duration_s=now - follower.admitted_at,
                )
                self._record_response(follower, fanned)

    #: terminal statuses worth memoizing: deterministic answers a
    #: byte-identical future request would reproduce anyway
    _CACHEABLE_STATUSES = frozenset(
        {STATUS_OK, STATUS_ERROR, STATUS_DEGRADED}
    )

    def _maybe_cache_store(
        self, state: _RequestState, response: CompileResponse
    ) -> None:
        """Memoize a terminal response under the request fingerprint.

        Never caches while the fingerprint's breaker is not CLOSED (a
        quarantined input must stay quarantined, a half-open probe's
        answer must not short-circuit the recovery protocol), never
        caches infrastructure failures (ice/timeout/circuit-open —
        transient by definition), and files degraded results under the
        degraded-tagged key so they can never shadow a primary result.
        """
        if self.cache is None or response.cache_hit:
            return
        if response.status not in self._CACHEABLE_STATUSES:
            return
        if self._breakers.get(state.fingerprint).state != CLOSED:
            return
        key = state.fingerprint
        if response.status == STATUS_DEGRADED:
            key = degraded_key(key)
        self.cache.put_response(key, response.to_dict())
        self._m_cache_events.labels(tier="store").inc()

    @staticmethod
    def _outcome_label(response: CompileResponse) -> str:
        """Latency-histogram outcome: serving path wins over status —
        a replayed or coalesced answer has its own latency profile."""
        if response.cache_hit:
            return "cached"
        if response.coalesced:
            return "coalesced"
        if response.status == STATUS_RESOURCE_EXHAUSTED:
            return "shed"
        return response.status

    def _record_response(
        self, state: _RequestState, response: CompileResponse
    ) -> None:
        """The single choke point every terminal response passes through
        (resolutions, rejects, cache replays, coalesced fan-outs):
        metrics, the JSONL event, and trace finalization happen here, so
        requests-in == sum of terminal outcomes by construction."""
        response.queue_wait_s = state.queue_wait_s
        outcome = self._outcome_label(response)
        self._m_responses.labels(status=response.status).inc()
        self._m_latency.labels(outcome=outcome).observe(
            response.duration_s
        )
        if state.trace is not None:
            response.trace_id = state.trace.trace_id
            state.trace.close(
                "ServiceRequest",
                state.start_ns,
                time.perf_counter_ns(),
                detail=f"{response.request_id}: {response.status}",
            )
            self.tracer.record(state.trace)
        self._emit(
            "response",
            request_id=response.request_id,
            trace_id=response.trace_id,
            status=response.status,
            outcome=outcome,
            duration_s=round(response.duration_s, 6),
            queue_wait_s=round(response.queue_wait_s, 6),
            attempts=response.attempts,
            retries=response.retries,
            hedged=response.hedged or None,
            cache_hit=response.cache_hit or None,
            coalesced=response.coalesced or None,
        )
        state.response = response
        profiler = active_time_trace()
        if profiler is not None:
            profiler.add_span(
                "ServiceRequest",
                f"{response.request_id}: {response.status}",
                state.start_ns,
                time.perf_counter_ns(),
            )
        if self.on_response is not None:
            self.on_response(response)

    # ------------------------------------------------------------------
    def shutdown(self) -> None:
        self.snapshot_state()
        self.pool.shutdown()

    def __enter__(self) -> "CompileService":
        return self

    def __exit__(self, *exc) -> None:
        self.shutdown()


# ----------------------------------------------------------------------
# The accounting identity :meth:`CompileService._record_response` keeps
# ----------------------------------------------------------------------
#: gauges that read 0 once a service (every shard, for a router) drained
_DRAINED_GAUGES = (
    "service_queue_depth",
    "service_in_flight",
    "service_shard_queue_depth",
    "service_shard_in_flight",
)


def _series(name: str, labels: dict) -> str:
    inner = ",".join(f"{k}={v}" for k, v in sorted(labels.items()))
    return f"{name}{{{inner}}}" if inner else name


def _total(
    snapshots: tuple, name: str, field: str = "value"
) -> Optional[float]:
    """Σ *field* over every series of *name* in every snapshot; None
    when no snapshot carries *name* (its layer did not run)."""
    entries = [s[name] for s in snapshots if name in s]
    if not entries:
        return None
    return sum(row[field] for entry in entries for row in entry["series"])


def accounting_violations(*snapshots: dict) -> list[str]:
    """Every request-accounting identity that *snapshots* (registry
    snapshots or deltas, read like
    :func:`~repro.instrument.stats.stat_values`: series summed across
    snapshots) break, one message each; ``[]`` when the books balance.

    An identity is checked when its layer appears in the snapshots:

    * ``service.requests`` == Σ ``service.responses{status}`` == Σ
      ``service_request_duration_seconds`` counts;
    * each histogram series' bucket counts sum to its count;
    * ``net.routed`` (the router's per-shard count) ==
      ``service.requests``;
    * ``net.requests`` == ``net.responses-sent`` +
      ``net.responses-orphaned`` == ``service.requests``;
    * every queue-depth and in-flight gauge reads 0 (call after a
      drain).  Merged gauges take the max, so one row covers every
      shard.
    """
    out: list[str] = []
    totals = {
        "sum of service.responses": _total(snapshots, "service.responses"),
        "service_request_duration_seconds count": _total(
            snapshots, "service_request_duration_seconds", "count"
        ),
    }
    requests = _total(snapshots, "service.requests")
    service_layer = requests is not None or any(
        value is not None for value in totals.values()
    )
    requests = requests or 0
    for name, value in totals.items():
        if service_layer and requests != (value or 0):
            out.append(f"service.requests={requests} != {name}={value or 0}")
    for snapshot in snapshots:
        for name, entry in snapshot.items():
            for row in entry["series"]:
                series = _series(name, row["labels"])
                if entry["type"] == "histogram":
                    in_buckets = sum(n for _, n in row["buckets"])
                    if in_buckets != row["count"]:
                        out.append(
                            f"{series}: buckets hold {in_buckets} != "
                            f"count {row['count']}"
                        )
                elif name in _DRAINED_GAUGES and row["value"] != 0:
                    out.append(
                        f"{series}={row['value']} after drain, expected 0"
                    )
    routed = _total(snapshots, "net.routed")
    if routed is not None and routed != requests:
        out.append(f"net.routed={routed} != service.requests={requests}")
    wire = [
        _total(snapshots, f"net.{name}")
        for name in ("requests", "responses-sent", "responses-orphaned")
    ]
    if any(value is not None for value in wire):
        admitted, sent, orphaned = (value or 0 for value in wire)
        if admitted != sent + orphaned:
            out.append(
                f"net.requests={admitted} != net.responses-sent={sent} "
                f"+ net.responses-orphaned={orphaned}"
            )
        if service_layer and admitted != requests:
            out.append(
                f"net.requests={admitted} != service.requests={requests}"
            )
    return out

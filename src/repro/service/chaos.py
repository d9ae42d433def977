"""Chaos harness for the compile service: ``python -m repro.service.chaos``.

Three campaigns run on one fault-schedule runner (:class:`Campaign`):
a fault plan expressed as a ``(category, request)`` schedule, a
workload, the byte-identity oracle and the one accounting check,
:func:`repro.service.accounting_violations`.

* the **batch** campaign (default) poisons a batch of real tile/unroll
  compile+run requests with deterministic ``-finject-fault`` specs —
  hard worker deaths (``service-worker-exit``), hangs past the deadline
  (``service-worker-hang``), and *poison inputs* that fail on every
  attempt (``service-worker`` with ``fault_attempts=-1``);
* ``--storage`` arms every storage fault site against a shared disk
  cache and restarts the service mid-campaign;
* ``--net`` puts the sharded TCP front door under concurrent load and
  a table of hostile clients, then SIGTERM-drains a real
  ``miniclang-serve`` subprocess.

Each asserts the service's contract:

* **zero lost requests** — every submitted request has exactly one
  terminal response;
* transient kills and hangs are *absorbed*: those requests still end in
  ``ok``/``degraded``, after a retry;
* every poison input trips its circuit breaker within the failure
  threshold, is quarantined with a written reproducer, and a resubmit
  is rejected at admission (``circuit-open``);
* the books balance: requests in == the sum of terminal statuses ==
  latency observations (== wire responses over TCP), and the queue
  gauges read zero after the drain.

Exit code 0 when every invariant holds, 1 otherwise — this is the CI
smoke batch and the acceptance harness in one.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import signal
import socket
import struct
import subprocess
import sys
import tempfile
import threading
import time
from typing import Optional

from repro.instrument.stats import (
    STATS,
    MetricsRegistry,
    render_stats_text,
    stat_rows,
    stat_values,
)
from repro.service import (
    STATUS_CIRCUIT_OPEN,
    CompileRequest,
    CompileService,
    RetryPolicy,
    ServiceConfig,
    accounting_violations,
    load_state,
    state_path,
)

#: every chaos request is a real program: tile+unroll, compiled and run
_SOURCE_TEMPLATE = """\
// chaos request {index}{tag}
int printf(const char *fmt, ...);
int main() {{
  int sum = 0;
  #pragma omp tile sizes({tile})
  for (int i = 0; i < 12; i += 1)
    sum += i * {index};
  #pragma omp unroll partial(2)
  for (int j = 0; j < 4; j += 1)
    sum += j;
  printf("chaos {index}: %d\\n", sum);
  return 0;
}}
"""


def chaos_request(
    index: int,
    tag: str = "",
    *,
    filename: Optional[str] = None,
    action: str = "run",
    mode: Optional[str] = None,
    deadline_s: Optional[float] = None,
    faults: tuple[str, ...] = (),
    fault_attempts: int = 1,
) -> CompileRequest:
    """Chaos program *index* as one request.  *tag* is a comment the IR
    never sees: it gives a request its own fingerprint without changing
    its output.  The representation alternates with *index* unless
    *mode* is given."""
    return CompileRequest(
        source=_SOURCE_TEMPLATE.format(
            index=index, tag=tag, tile=2 + index % 3
        ),
        filename=filename or f"chaos-{index}.c",
        action=action,
        mode=mode or ("irbuilder" if index % 2 else "shadow"),
        deadline_s=deadline_s,
        inject_faults=tuple(faults),
        fault_attempts=fault_attempts,
    )


#: what each schedule category arms: (fault sites, leading attempts
#: armed; -1 = every attempt)
_FAULTS = {
    "clean": ((), 1),
    "kill": (("service-worker-exit",), 1),
    "hang": (("service-worker-hang",), 1),
    "poison": (("service-worker",), -1),
}
#: categories whose fault is armed on the first attempt only: they
#: must be served after a retry
_RETRIED = ("kill", "hang")
#: failures that trip a poison input's breaker
_BREAKER_THRESHOLD = 3


class Campaign:
    """What every campaign shares: the failure list, the statistics
    window, the schedule and accounting checks, and the report."""

    def __init__(self, name: str, args) -> None:
        self.name = name
        self.args = args
        self.failures: list[str] = []
        #: filename -> expected output: the byte-identity oracle
        self.oracle: Optional[dict[str, str]] = None
        #: the service registry snapshot and statistics :meth:`audit`
        #: closed the window on
        self.snapshot: dict = {}
        self.stats: dict[str, int] = {}
        self._before = STATS.snapshot()
        self._delta: dict = {}

    def check(self, condition: bool, message: str) -> None:
        if not condition:
            self.failures.append(message)

    def expect(
        self, name: str, relation: str, bound: int, why: str = ""
    ) -> None:
        """Check statistic *name* ``==``, ``>=`` or ``>`` *bound*."""
        value = self.stats.get(name, 0)
        holds = {
            "==": value == bound,
            ">=": value >= bound,
            ">": value > bound,
        }[relation]
        self.check(
            holds,
            f"{name}={value}, expected {relation} {bound}"
            + (f" {why}" if why else ""),
        )

    def service_config(self, **overrides) -> ServiceConfig:
        """The service every campaign runs: fast retries, a breaker
        that trips on the third failure, a queue sized for the batch."""
        args = self.args
        fields = dict(
            workers=args.workers,
            queue_capacity=max(args.count + 8, 16),
            deadline_s=args.deadline,
            retry=RetryPolicy(
                max_attempts=3, base_delay_s=0.01, max_delay_s=0.1
            ),
            breaker_threshold=_BREAKER_THRESHOLD,
            quarantine_dir=args.quarantine_dir or None,
        )
        fields.update(overrides)
        return ServiceConfig(**fields)

    # -- the fault schedule --------------------------------------------
    def check_schedule(self, label: str, schedule, responses) -> None:
        """One loop over a ``(category, request)`` schedule and its
        responses: every request gets a terminal response; a poison
        input ends ``circuit-open`` within the breaker threshold (with
        a reproducer when quarantining); everything else is served, a
        ``kill``/``hang`` one only after a retry, and byte-identical to
        :attr:`oracle` (keyed by filename) when the campaign has one."""
        self.check(
            len(responses) == len(schedule),
            f"{label}lost requests: {len(responses)}/{len(schedule)} "
            "responses",
        )
        for i, ((category, request), response) in enumerate(
            zip(schedule, responses)
        ):
            if response is None or not response.status:
                self.failures.append(
                    f"{label}request {i} has no terminal response"
                )
                continue
            if category == "poison":
                self.check(
                    response.status == STATUS_CIRCUIT_OPEN,
                    f"{label}poison request {i} ended {response.status}, "
                    "expected circuit-open",
                )
                self.check(
                    response.attempts <= _BREAKER_THRESHOLD,
                    f"{label}poison request {i} took {response.attempts} "
                    f"attempts, breaker threshold is {_BREAKER_THRESHOLD}",
                )
                if self.args.quarantine_dir:
                    self.check(
                        bool(response.reproducer_path),
                        f"{label}poison request {i} quarantined without "
                        "a reproducer",
                    )
                continue
            detail = (response.detail or "").splitlines()[:1]
            self.check(
                response.ok,
                f"{label}{category} request {i} not served: "
                f"{response.status} ({''.join(detail)})",
            )
            if category in _RETRIED:
                self.check(
                    response.attempts >= 2,
                    f"{label}{category} request {i} resolved in "
                    f"{response.attempts} attempt(s) — fault not armed?",
                )
            if self.oracle is not None and response.ok:
                self.check(
                    response.output == self.oracle[request.filename],
                    f"{label}request {i} served bytes that differ from "
                    f"the uncached oracle for {request.filename} — "
                    "corrupt payload escaped the integrity check",
                )

    def resubmit_poison(
        self, service: CompileService, schedule, when: str
    ) -> None:
        """Resubmit every poison input: its open breaker must reject it
        at admission, without a worker attempt."""
        for i, (category, request) in enumerate(schedule):
            if category != "poison":
                continue
            reject = service.submit(
                dataclasses.replace(request, request_id=None)
            )
            self.check(
                reject is not None and reject.status == STATUS_CIRCUIT_OPEN,
                f"poison resubmit {i} was not rejected {when}",
            )
            self.check(
                reject is None or reject.attempts == 0,
                f"poison resubmit {i} burned {reject and reject.attempts} "
                "worker attempt(s) — quarantine must reject without "
                "re-executing",
            )

    # -- accounting and report -----------------------------------------
    def audit(
        self, snapshot: dict, submissions: Optional[int] = None
    ) -> None:
        """Close the statistics window on the service registry
        *snapshot*, check the accounting identity over it and the
        process-wide STATS delta, and that the service admitted exactly
        *submissions* requests."""
        self._delta = STATS.delta_since(self._before)
        self.snapshot = snapshot
        self.stats = stat_values(self._delta, snapshot)
        if submissions is not None:
            self.expect("service.requests", "==", submissions)
        for violation in accounting_violations(self._delta, snapshot):
            self.failures.append(f"accounting: {violation}")

    def report(self, summary: str) -> int:
        if self.args.metrics_json:
            with open(self.args.metrics_json, "w", encoding="utf-8") as fh:
                json.dump(self.snapshot, fh, indent=1)
                fh.write("\n")
        print(f"{self.name}: {summary}")
        if self.args.print_stats or self.failures:
            print(
                render_stats_text(stat_rows(self._delta, self.snapshot)),
                file=sys.stderr,
            )
        if self.failures:
            for failure in self.failures:
                print(f"{self.name}: FAIL: {failure}", file=sys.stderr)
            return 1
        print(f"{self.name}: all invariants hold")
        return 0


def _categories(schedule) -> dict[str, list[int]]:
    plan: dict[str, list[int]] = {}
    for i, (category, _) in enumerate(schedule):
        plan.setdefault(category, []).append(i)
    return plan


# ======================================================================
# Batch chaos: worker kills, hangs and poison inputs
# ======================================================================


def build_batch(args) -> list[tuple[str, CompileRequest]]:
    """The deterministic chaos batch as a ``(category, request)``
    schedule."""
    schedule: list[tuple[str, CompileRequest]] = []
    poison_every = (
        max(1, args.count // args.poison) if args.poison else 0
    )
    poisoned = 0
    for i in range(args.count):
        category = "clean"
        if (
            poison_every
            and i % poison_every == poison_every - 1
            and poisoned < args.poison
        ):
            # Unique source per poison input -> distinct fingerprints,
            # so each one trips its *own* breaker.
            category = "poison"
            poisoned += 1
        elif args.kill_every and i % args.kill_every == 1:
            category = "kill"
        elif args.hang_every and i % args.hang_every == 2:
            category = "hang"
        faults, attempts = _FAULTS[category]
        request = chaos_request(
            i,
            f" [{category}]",
            deadline_s=args.deadline,
            faults=faults,
            fault_attempts=attempts,
        )
        schedule.append((category, request))
    return schedule


def run_chaos(args) -> int:
    campaign = Campaign("chaos", args)
    schedule = build_batch(args)
    config = campaign.service_config(hedge_delay_s=args.hedge_delay)
    with CompileService(config) as service:
        responses = service.process_batch([r for _, r in schedule])
        campaign.resubmit_poison(service, schedule, "at admission")
        service.drain()
        snapshot = service.metrics.snapshot()
    plan = _categories(schedule)
    kills, hangs = plan.get("kill", []), plan.get("hang", [])
    n_poison = len(plan.get("poison", []))
    campaign.audit(snapshot, submissions=args.count + n_poison)
    campaign.check_schedule("", schedule, responses)

    # -- the fault counters account for every planned fault ------------
    # A hang answered by its hedge is not a timeout: the hung primary
    # is cancelled as a straggler once the hedge wins.
    hedged_hangs = sum(
        1
        for i in hangs
        if i < len(responses) and responses[i] and responses[i].hedged
    )
    campaign.expect("service.breaker-trips", "==", n_poison)
    campaign.expect("service.quarantined", "==", n_poison)
    campaign.expect("service.breaker-rejected", "==", n_poison)
    campaign.expect(
        "service.timeouts",
        ">=",
        len(hangs) - hedged_hangs,
        f"({len(hangs)} hangs, {hedged_hangs} answered by a hedge)",
    )
    campaign.expect("service.worker-lost", ">=", len(kills))
    campaign.expect("service.shed", "==", 0, "(queue sized for the batch)")
    breaker_opens = sum(
        row["value"]
        for row in snapshot["service_breaker_transitions_total"]["series"]
        if row["labels"].get("to") == "open"
    )
    campaign.check(
        breaker_opens == n_poison,
        f"breaker open transitions {breaker_opens} != poison {n_poison}",
    )

    for row in snapshot["service_request_duration_seconds"]["series"]:
        print(
            f"chaos: latency[{row['labels'].get('outcome')}]: "
            f"n={row['count']} p50={row['p50']}s p95={row['p95']}s "
            f"p99={row['p99']}s"
        )
    stats = campaign.stats
    return campaign.report(
        f"{args.count} requests "
        f"({len(kills)} kills, {len(hangs)} hangs, "
        f"{n_poison} poison) on {args.workers} workers: "
        f"{sum(1 for r in responses if r and r.ok)} served, "
        f"{n_poison} quarantined, "
        f"{stats.get('service.retries', 0)} retries, "
        f"{stats.get('service.worker-restarts', 0)} worker restarts"
    )


# ======================================================================
# Storage chaos: fault-armed shared disk cache + kill-and-restart
# ======================================================================

#: the deterministic I/O fault family inside the disk tier
_STORAGE_SITES = (
    "storage-write-torn",
    "storage-write-enospc",
    "storage-read-corrupt",
    "storage-rename-fail",
    "storage-fsync-fail",
)

#: distinct cacheable programs the storage campaign rotates through —
#: repetition is the point: later requests must be able to *hit* what
#: earlier (possibly torn) writes stored
_N_STORAGE_SOURCES = 8


def _storage_request(
    src: int,
    deadline: float,
    faults: tuple[str, ...] = (),
    fault_attempts: int = 1,
    tag: str = " [storage]",
) -> CompileRequest:
    return chaos_request(
        src,
        tag,
        filename=f"storage-{src}.c",
        action="compile",
        deadline_s=deadline,
        faults=faults,
        fault_attempts=fault_attempts,
    )


def build_storage_phases(args) -> tuple[list, list]:
    """Two ``(category, request)`` schedules: before and after the
    restart.

    Phase A opens with a clean warm-up covering every source (so the
    disk cache holds known-good entries before anything is torn), then
    interleaves storage-fault-armed requests, worker kills, and poison
    inputs.  Phase B — served by a *fresh* service on the same cache
    and state directories — replays the sources with cold memory tiers,
    arming ``storage-read-corrupt`` on the first visit to each source
    so corruption detection is exercised deterministically.
    """
    half = max(16, args.count // 2)
    phase_a: list[tuple[str, CompileRequest]] = []
    warmup = max(_N_STORAGE_SOURCES, half // 4)
    poison_slots = {warmup + 1 + p * 3: p for p in range(args.poison)}
    for i in range(half):
        src = i % _N_STORAGE_SOURCES
        if i < warmup:
            entry = ("clean", _storage_request(src, args.deadline))
        elif i in poison_slots:
            # Unique source per poison input -> distinct fingerprints,
            # so each trips (and persists) its own breaker.
            p = poison_slots[i]
            faults, attempts = _FAULTS["poison"]
            entry = (
                "poison",
                chaos_request(
                    900 + p,
                    " [poison]",
                    filename=f"storage-poison-{p}.c",
                    action="compile",
                    mode="shadow",
                    deadline_s=args.deadline,
                    faults=faults,
                    fault_attempts=attempts,
                ),
            )
        elif args.kill_every and i % args.kill_every == 0:
            # Unique tag -> unique fingerprint, so repeated kills are
            # really executed instead of replayed from the response
            # cache.
            faults, _ = _FAULTS["kill"]
            tag = f" [storage kill {i}]"
            entry = (
                "kill",
                _storage_request(src, args.deadline, faults, tag=tag),
            )
        else:
            site = _STORAGE_SITES[i % len(_STORAGE_SITES)]
            entry = (
                "storage",
                _storage_request(src, args.deadline, (site,), -1),
            )
        phase_a.append(entry)

    rest = max(_N_STORAGE_SOURCES, args.count - half)
    phase_b: list[tuple[str, CompileRequest]] = []
    for j in range(rest):
        src = j % _N_STORAGE_SOURCES
        # First visit to each source after the restart: the memory
        # tiers are cold, so the disk read happens — and the armed fault
        # corrupts it in flight.  The tier must detect, heal, and
        # recompile; serving torn bytes would be the bug.
        first = j < _N_STORAGE_SOURCES
        faults = ("storage-read-corrupt",) if first else ()
        phase_b.append(
            (
                "read-corrupt" if first else "clean",
                _storage_request(src, args.deadline, faults),
            )
        )
    return phase_a, phase_b


def run_storage_chaos(args) -> int:
    from repro.pipeline import execute_request

    phase_a, phase_b = build_storage_phases(args)
    poison = [r for category, r in phase_a if category == "poison"]

    # Uncached oracle: the byte-identity reference for every rotating
    # source, computed before any cache or fault is in play.
    oracle: dict[str, str] = {}
    for src in range(_N_STORAGE_SOURCES):
        request = _storage_request(src, args.deadline)
        outcome = execute_request(request.source, request.invocation())
        if outcome.kind != "ok":
            print(
                f"chaos: oracle compile of source {src} failed: "
                f"{outcome.kind}",
                file=sys.stderr,
            )
            return 1
        oracle[request.filename] = outcome.output

    campaign = Campaign("storage-chaos", args)
    campaign.oracle = oracle
    config = campaign.service_config(
        # Long cooldown: restored OPEN breakers must still be OPEN
        # when phase B resubmits the poison inputs.
        breaker_cooldown_s=600.0,
        enable_cache=True,
        cache_dir=args.cache_dir,
        cache_durable=args.durable,
        state_dir=args.state_dir,
        metrics=MetricsRegistry(),
    )

    # -- phase A: faulted traffic, then a *restart* --------------------
    with CompileService(config) as service_a:
        responses_a = service_a.process_batch([r for _, r in phase_a])
    # service_a's shutdown snapshotted its breaker board + quarantine.
    snapshot_file = state_path(args.state_dir)
    mid_state = load_state(args.state_dir)

    # -- phase B: a fresh instance on the same cache + state dirs ------
    with CompileService(config) as service_b:
        restored = dict(service_b.quarantined)
        responses_b = service_b.process_batch([r for _, r in phase_b])
        campaign.resubmit_poison(service_b, phase_a, "after restart")
        service_b.drain()
        snapshot = service_b.metrics.snapshot()

    # Both instances share one registry: the books cover the restart.
    campaign.audit(snapshot, len(phase_a) + len(phase_b) + len(poison))
    campaign.check_schedule("phase A ", phase_a, responses_a)
    campaign.check_schedule("phase B ", phase_b, responses_b)
    campaign.expect(
        "cache.corrupt-entries", ">", 0, "(read-corrupt must reach disk)"
    )

    # -- poison quarantine survives the restart ------------------------
    fingerprints = {r.fingerprint() for r in poison}
    campaign.check(
        mid_state is not None,
        f"no usable state snapshot at {snapshot_file} after phase A",
    )
    campaign.check(
        mid_state is None or fingerprints <= set(mid_state.quarantined),
        "phase A snapshot lost quarantined fingerprints",
    )
    campaign.check(
        fingerprints <= set(restored),
        "restarted service did not restore the quarantine",
    )
    campaign.expect("service.quarantine-restored", "==", len(poison))
    campaign.expect("service.state-restores", ">=", 1)
    final_state = load_state(args.state_dir)
    campaign.check(
        final_state is not None
        and fingerprints <= set(final_state.quarantined),
        "final state snapshot is unusable or lost the quarantine",
    )

    stats = campaign.stats
    plan_a, plan_b = _categories(phase_a), _categories(phase_b)
    served = sum(1 for r in responses_a + responses_b if r and r.ok)
    return campaign.report(
        f"{len(phase_a)}+{len(phase_b)} requests "
        f"({len(plan_a.get('storage', []))} storage-faulted, "
        f"{len(plan_b.get('read-corrupt', []))} read-corrupt, "
        f"{len(plan_a.get('kill', []))} kills, {len(poison)} poison) "
        f"across one restart: {served} served, "
        f"{stats.get('cache.corrupt-entries', 0)} corrupt entries "
        f"detected+healed, "
        f"{stats.get('cache.disk-disabled', 0)} disk degradations, "
        f"state snapshot at {snapshot_file}"
    )


# ======================================================================
# Network chaos: the TCP front door under hostile clients
# ======================================================================

#: deterministic junk that contains no ``MAGIC`` byte sequence, so the
#: decoder's resync scan is exercised without accidentally framing
_GARBAGE = bytes([0x00, 0x01, 0x7F, 0xFE, 0xFD, 0x42, 0x03, 0xF0]) * 8


def _net_request(index: int, deadline: float, faults=()) -> CompileRequest:
    return chaos_request(
        index,
        " [net]",
        filename=f"net-{index}.c",
        deadline_s=deadline,
        faults=faults,
    )


def _frame_signature(event) -> tuple:
    """What a hostile-client scenario expects of a frame: ``(error,
    code)``, ``(pong, id)`` or ``(response, id, status)``."""
    if not isinstance(event, dict):
        return ("?",)
    kind = event.get("type")
    if kind == "error":
        return (kind, event.get("code"))
    if kind == "response":
        return (kind, event.get("id"), event["response"].get("status"))
    return (kind, event.get("id"))


def _hostile_clients(args, frame_timeout_s: float) -> list[tuple]:
    """The misbehaving clients the protocol defends against, one row
    each: (scenario, byte chunks sent with *pause* seconds between
    them, pause, how the client ends, frames it must get exactly
    once).  A client ends with ``"rst"`` (an abortive close before the
    answer), ``"close"``, or by reading for that many seconds."""
    from repro.service.net import DEFAULT_MAX_FRAME_BYTES
    from repro.service.net.protocol import (
        encode_frame,
        ping_message,
        request_message,
    )

    def frame(msg_id: str, index: int) -> bytes:
        return encode_frame(
            request_message(
                msg_id,
                _net_request(index, args.deadline),
                deadline_s=args.deadline,
            )
        )

    truncated = frame("trunc01", 20100)
    half = frame("half01", 20200)
    junk = _GARBAGE + encode_frame(ping_message("after-junk"))
    oversized = struct.pack(">2sBBI", b"MC", 1, 0, DEFAULT_MAX_FRAME_BYTES + 1)
    return [
        # The server sees the connection die with the compile still in
        # flight: it must orphan the answer, not crash or lose it.
        ("disconnect", [frame("gone00", 20000)], 0.0, "rst", []),
        ("disconnect", [frame("gone01", 20001)], 0.0, "rst", []),
        # Garbage, then a valid frame: the decoder must resync.
        ("garbage", [junk], 0.0, 5.0,
         [("error", "bad-magic"), ("pong", "after-junk")]),
        # EOF mid-frame: the server must just drop it.
        ("truncated", [truncated[: len(truncated) // 2]], 0.0, "close", []),
        # Completed inside frame_timeout_s: served normally.
        ("half-written", [half[:10], half[10:]], 0.3, args.deadline + 10.0,
         [("response", "half01", "ok")]),
        # A fatal structured error, not a crash.
        ("oversized", [oversized], 0.0, 5.0, [("error", "oversized-frame")]),
        # Header + 4 payload bytes, then a stall: evicted.
        ("slow-loris", [half[:12]], 0.0, frame_timeout_s + 5.0,
         [("error", "slow-client")]),
    ]


def _run_hostile(campaign, address, row) -> None:
    """Play one :func:`_hostile_clients` row against the server."""
    from repro.service.net.protocol import FrameDecoder

    scenario, chunks, pause_s, ending, expected = row
    timeout_s = ending if isinstance(ending, float) else 5.0
    sock = socket.create_connection(address, timeout=timeout_s)
    for k, chunk in enumerate(chunks):
        if k:
            time.sleep(pause_s)
        sock.sendall(chunk)
    if ending == "rst":
        # SO_LINGER(0) turns close() into an immediate RST.
        sock.setsockopt(
            socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0)
        )
    decoder, events = FrameDecoder(), []
    deadline = time.monotonic() + timeout_s
    try:
        while isinstance(ending, float) and time.monotonic() < deadline:
            data = sock.recv(65536)
            if not data:
                break
            events.extend(decoder.feed(data))
    except OSError:  # socket.timeout included
        pass
    sock.close()
    got = [_frame_signature(e) for e in events]
    for signature in expected:
        campaign.check(
            got.count(signature) == 1,
            f"{scenario}: expected one {signature} frame, got {events!r}",
        )


def _sigterm_drain_scenario(campaign) -> None:
    """Spawn a real ``miniclang-serve --listen`` subprocess, serve one
    request over TCP, SIGTERM it, and assert the structured drain:
    exit code 0 and the ``drained`` banner."""
    import repro
    from repro.service.net import NetClient

    check = campaign.check
    src_root = os.path.dirname(
        os.path.dirname(os.path.abspath(repro.__file__))
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = src_root + os.pathsep + env.get("PYTHONPATH", "")
    with tempfile.TemporaryDirectory(prefix="net-chaos-") as tmp:
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro.driver.serve"]
            + ["--listen", "127.0.0.1:0", "--shards", "2", "--workers", "1"]
            + ["--state-dir", os.path.join(tmp, "state")],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=env,
            text=True,
        )
        try:
            # The operational banner goes to stderr (stdout is reserved
            # for compile output); read it with a join timeout.
            banner_box: list = []
            reader = threading.Thread(
                target=lambda: banner_box.append(proc.stderr.readline()),
                daemon=True,
            )
            reader.start()
            reader.join(timeout=60.0)
            banner = banner_box[0] if banner_box else ""
            if "listening on " not in banner:
                check(False, f"serve printed no banner: {banner!r}")
                return
            address = banner.split("listening on ")[1].split(" ")[0]
            response = NetClient(address, deadline_s=30.0).request(
                chaos_request(
                    7,
                    " [drain]",
                    filename="net-drain.c",
                    mode="shadow",
                    deadline_s=campaign.args.deadline,
                )
            )
            check(
                response.ok,
                "subprocess server did not serve the pre-drain "
                f"request: {response.status}",
            )
            proc.send_signal(signal.SIGTERM)
            try:
                _, stderr = proc.communicate(timeout=60)
            except subprocess.TimeoutExpired:
                check(False, "SIGTERM drain hung past 60s")
                return
            check(
                proc.returncode == 0,
                f"SIGTERM drain exited {proc.returncode}, expected 0 "
                f"(stderr: {stderr.strip()[:200]})",
            )
            check(
                "drained:" in stderr,
                "drain did not print the structured summary line",
            )
            check(
                "accounting violation" not in stderr,
                "serve subprocess reported an accounting violation: "
                f"{stderr.strip()[-300:]}",
            )
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.communicate()


def run_net_chaos(args) -> int:
    """The ``--net`` campaign: an in-process sharded TCP server under
    concurrent well-behaved load (with shard-worker kills) *and* the
    :func:`_hostile_clients` table, then the accounting check on the
    merged shard ledgers and the wire ledger.  Ends with a real
    ``miniclang-serve`` subprocess draining cleanly on SIGTERM."""
    from repro.service.net import NetClient, NetServerConfig, NetServerThread

    campaign = Campaign("net-chaos", args)
    check = campaign.check
    shard_configs = [
        campaign.service_config(retain_responses=False)
        for _ in range(args.shards)
    ]
    net_config = NetServerConfig(
        frame_timeout_s=1.0,
        idle_timeout_s=60.0,
        write_timeout_s=5.0,
        drain_deadline_s=10.0,
    )
    # The well-behaved load: per client, every kill_every-th request
    # kills its worker on the first attempt.
    per_client = max(2, args.count // max(1, args.clients))
    schedule = []
    for tag in range(args.clients):
        for k in range(per_client):
            kill = bool(args.kill_every and k % args.kill_every == 1)
            category = "kill" if kill else "clean"
            request = _net_request(
                tag * 10000 + k, args.deadline, _FAULTS[category][0]
            )
            schedule.append((category, request))
    responses: list = [None] * len(schedule)
    clients: list[NetClient] = []

    host = NetServerThread(shard_configs, net_config)
    host.start()
    address = host.address
    try:
        probe = NetClient(address, deadline_s=args.deadline)
        check(probe.ping(), "initial health ping failed")

        def client_load(tag: int) -> None:
            # One client hedges cross-shard; the rest retry plainly.
            client = NetClient(
                address,
                deadline_s=max(20.0, args.deadline * 4),
                retry=RetryPolicy(
                    max_attempts=3, base_delay_s=0.05, max_delay_s=0.5
                ),
                hedge_delay_s=2.0 if tag == 0 else None,
            )
            clients.append(client)
            for slot in range(tag * per_client, (tag + 1) * per_client):
                responses[slot] = client.request(schedule[slot][1])

        threads = [
            threading.Thread(target=client_load, args=(tag,), daemon=True)
            for tag in range(args.clients)
        ]
        for thread in threads:
            thread.start()
        for row in _hostile_clients(args, net_config.frame_timeout_s):
            _run_hostile(campaign, address, row)
        for thread in threads:
            thread.join(timeout=120.0)
            check(not thread.is_alive(), "a load client thread hung")

        # -- the server survived all of it -----------------------------
        check(probe.ping(), "health ping failed after the campaign")
    finally:
        host.stop(drain_deadline_s=10.0)

    campaign.audit(host.router.merged_metrics().snapshot())
    campaign.check_schedule("load ", schedule, responses)
    duplicates = probe.duplicate_responses + sum(
        c.duplicate_responses for c in clients
    )
    check(
        duplicates == 0,
        f"{duplicates} double-answered request frame(s) observed",
    )
    campaign.expect("net.requests", ">", 0, "(admitted over the wire)")
    if len(schedule) >= args.shards * 4:
        for row in campaign.snapshot["router_requests_total"]["series"]:
            check(
                row["value"] > 0,
                f"shard {row['labels'].get('shard')} never saw a "
                "request — least-depth routing is not spreading load",
            )
    campaign.expect("net.slow-loris-evictions", ">=", 1)
    campaign.expect("net.frame-errors", ">=", 2, "(garbage + oversized)")

    # -- structured SIGTERM drain of a real subprocess -----------------
    _sigterm_drain_scenario(campaign)

    stats = campaign.stats
    kills = sum(1 for category, _ in schedule if category == "kill")
    return campaign.report(
        f"{len(schedule)} requests over TCP "
        f"({args.clients} clients, {args.shards} shards, "
        f"{kills} worker kills) + 2 disconnects, garbage, truncated, "
        f"half-written, oversized, slow-loris: "
        f"{stats.get('net.requests', 0)} admitted, "
        f"{stats.get('net.responses-sent', 0)} answered, "
        f"{stats.get('net.responses-orphaned', 0)} orphaned, "
        f"{duplicates} duplicates"
    )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.service.chaos",
        description="chaos/acceptance harness for the compile service",
    )
    add = parser.add_argument
    add("--count", type=int, default=50)
    add("--kill-every", type=int, default=10, metavar="K",
        help="hard-kill the worker on the first attempt of every K-th "
        "request (0 = none)")
    add("--hang-every", type=int, default=0, metavar="M",
        help="hang the worker past the deadline on the first attempt "
        "of every M-th request (0 = none)")
    add("--poison", type=int, default=2, metavar="P",
        help="number of poison inputs (fail on every attempt)")
    add("--workers", type=int, default=2)
    add("--deadline", type=float, default=5.0, metavar="SECONDS")
    add("--hedge-delay", type=float, default=None, metavar="SECONDS")
    add("--quarantine-dir", default="service-quarantine", metavar="DIR")
    add("--print-stats", action="store_true", dest="print_stats")
    add("--metrics-json", default=None, dest="metrics_json",
        metavar="FILE",
        help="write the service metrics snapshot (per-outcome latency "
        "histograms included) as JSON")
    add("--storage", action="store_true",
        help="run the storage campaign instead: fault-armed shared "
        "disk cache, mid-campaign service restart, durable "
        "quarantine; asserts zero corrupt payloads served")
    add("--cache-dir", default="storage-chaos-cache", dest="cache_dir",
        metavar="DIR", help="shared disk cache directory for --storage")
    add("--state-dir", default="storage-chaos-state", dest="state_dir",
        metavar="DIR",
        help="durable service state directory for --storage")
    add("--durable", action="store_true",
        help="fsync cache writes before rename (-fcache-durable)")
    add("--net", action="store_true",
        help="run the network campaign instead: sharded TCP server "
        "under hostile clients (disconnects, garbage, truncated/"
        "half-written/oversized frames, slow loris, worker kills); "
        "asserts zero lost and zero double-answered requests plus "
        "a clean SIGTERM drain of a real serve subprocess")
    add("--shards", type=int, default=2,
        help="worker-pool shards behind the TCP server (--net)")
    add("--clients", type=int, default=4,
        help="concurrent well-behaved load clients (--net)")
    args = parser.parse_args(argv)
    if args.net:
        return run_net_chaos(args)
    if args.storage:
        return run_storage_chaos(args)
    return run_chaos(args)


if __name__ == "__main__":
    sys.exit(main())

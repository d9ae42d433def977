"""``miniclang-serve`` — batch front-end for the resilient compile
service.

Each input file becomes one :class:`~repro.service.CompileRequest`; the
batch is executed on a pool of isolated worker processes with per-attempt
wall-clock deadlines, retry with backoff, optional hedging, per-input
circuit breaking, bounded admission, and shadow-AST <-> IRBuilder
graceful degradation.  With ``-fcache[=DIR]`` terminal responses and
per-stage compile artifacts are memoized in a content-addressed cache
(workers share the disk tier), and concurrent identical requests
collapse onto one execution (single-flight; disable with
``--no-single-flight``).  Successful payloads (IR text or guest stdout) go
to stdout; one status line per request goes to stderr with stable tokens
for FileCheck::

    miniclang-serve: r00001 <file>: ok [shadow] attempts=1
    miniclang-serve: r00002 <file>: degraded (irbuilder->shadow) attempts=4
    miniclang-serve: r00003 <file>: circuit-open ... reproducer=...

The process exit code is the batch's worst outcome under the shared
severity policy (:mod:`repro.driver.exitcodes`).
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import sys

from repro.driver.cli import (
    _print_stats,
    add_cache_and_stats_arguments,
    build_cache,
    parse_args,
    read_inputs,
)
from repro.driver.exitcodes import (
    EXIT_ICE,
    EXIT_OK,
    EXIT_TIMEOUT,
    EXIT_UNAVAILABLE,
    EXIT_USER_ERROR,
    worst_exit_code,
)
from repro.instrument.stats import (
    STATS,
    MetricsRegistry,
    get_statistic,
    stat_rows,
    stat_values,
)
from repro.instrument.telemetry import EventLog, TraceRecorder
from repro.service import (
    STATUS_DEGRADED,
    STATUS_ERROR,
    STATUS_OK,
    STATUS_RESOURCE_EXHAUSTED,
    STATUS_TIMEOUT,
    CompileRequest,
    CompileResponse,
    CompileService,
    RetryPolicy,
    ServiceConfig,
    accounting_violations,
    other_mode,
)


_INVARIANT_VIOLATIONS = get_statistic(
    "service",
    "invariant-violations",
    "Accounting identities found broken after the drain",
)


def build_arg_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="miniclang-serve",
        description=(
            "execute a batch of compile/run requests on a resilient "
            "worker-pool service (isolation, deadlines, retry, circuit "
            "breaking, shadow<->IRBuilder degradation)"
        ),
    )
    parser.add_argument(
        "inputs",
        nargs="*",
        metavar="input",
        help="C source file(s), '-' for stdin (omitted with --listen)",
    )
    parser.add_argument(
        "--workers", type=int, default=2, help="worker pool size"
    )
    parser.add_argument(
        "--listen",
        default=None,
        metavar="HOST:PORT",
        help="serve over TCP instead of executing an input batch: "
        "accept length-prefixed JSON frames, route across --shards "
        "worker pools, drain gracefully on SIGTERM (port 0 = pick a "
        "free port; the bound address is printed to stderr)",
    )
    parser.add_argument(
        "--shards",
        type=int,
        default=1,
        metavar="N",
        help="with --listen: number of independent worker-pool shards "
        "(least-queue-depth routing, per-shard breaker boards)",
    )
    parser.add_argument(
        "--max-connections",
        type=int,
        default=64,
        dest="max_connections",
        metavar="N",
        help="with --listen: concurrent-connection cap (excess "
        "connections get a retryable server-busy error frame)",
    )
    parser.add_argument(
        "--frame-timeout",
        type=float,
        default=10.0,
        dest="frame_timeout",
        metavar="SECONDS",
        help="with --listen: a started frame must finish arriving "
        "within this window (slow-loris eviction)",
    )
    parser.add_argument(
        "--idle-timeout",
        type=float,
        default=300.0,
        dest="idle_timeout",
        metavar="SECONDS",
        help="with --listen: close connections idle this long",
    )
    parser.add_argument(
        "--deadline",
        type=float,
        default=30.0,
        metavar="SECONDS",
        help="per-attempt wall-clock deadline (overrunning workers are "
        "killed and the attempt retried)",
    )
    parser.add_argument(
        "--retries",
        type=int,
        default=2,
        metavar="N",
        help="retries per representation after the first attempt",
    )
    parser.add_argument(
        "--hedge-delay",
        type=float,
        default=None,
        metavar="SECONDS",
        help="dispatch a duplicate attempt for stragglers after this "
        "many seconds (default: hedging off)",
    )
    parser.add_argument(
        "--queue-capacity",
        type=int,
        default=256,
        help="bounded admission: requests over this unresolved load "
        f"are shed with exit code {EXIT_UNAVAILABLE}",
    )
    parser.add_argument(
        "--mode",
        choices=("shadow", "irbuilder"),
        default="shadow",
        help="requested representation (the other serves as the "
        "graceful-degradation fallback)",
    )
    parser.add_argument(
        "--run",
        action="store_true",
        help="interpret the compiled module instead of printing IR",
    )
    parser.add_argument("--entry", default="main")
    parser.add_argument(
        "--num-threads",
        type=int,
        default=4,
        help="simulated OpenMP team size for --run",
    )
    parser.add_argument(
        "--optimize",
        action="store_true",
        help="run the mid-end pass pipeline",
    )
    parser.add_argument(
        "--fuel",
        type=int,
        default=None,
        metavar="N",
        help="with --run: maximum retired guest instructions",
    )
    parser.add_argument(
        "--no-degrade",
        action="store_true",
        help="disable representation fallback: persistent failures "
        "answer ice/timeout instead of degrading",
    )
    parser.add_argument(
        "--inject-fault",
        action="append",
        default=[],
        dest="inject_faults",
        metavar="SITE[:N]",
        help="arm this fault spec inside workers (chaos testing); "
        "see miniclang -print-fault-sites",
    )
    parser.add_argument(
        "--fault-attempts",
        type=int,
        default=1,
        metavar="N",
        help="arm --inject-fault on the first N attempts only "
        "(-1 = every attempt, simulating a poison input)",
    )
    parser.add_argument(
        "--quarantine-dir",
        default=os.environ.get(
            "MINICLANG_QUARANTINE_DIR", "service-quarantine"
        ),
        metavar="DIR",
        help="where poison-input reproducers are written "
        "('' disables quarantine reproducers; default: "
        "$MINICLANG_QUARANTINE_DIR or service-quarantine)",
    )
    parser.add_argument(
        "--state-dir",
        default=None,
        dest="state_dir",
        metavar="DIR",
        help="persist the breaker board and poison-input quarantine "
        "here; a restart restores them (quarantined inputs are "
        "rejected without re-execution, aged breakers re-enter "
        "half-open probing)",
    )
    parser.add_argument(
        "--drain-timeout",
        type=float,
        default=10.0,
        dest="drain_timeout",
        metavar="SECONDS",
        help="on SIGTERM/SIGINT: let in-flight requests finish this "
        "long before shedding the rest (second signal exits "
        "immediately)",
    )
    parser.add_argument(
        "--worker-max-requests",
        type=int,
        default=None,
        dest="worker_max_requests",
        metavar="N",
        help="preemptively recycle each worker after N completed "
        "attempts (zero request loss; gunicorn-style max_requests)",
    )
    parser.add_argument(
        "--heartbeat-interval",
        type=float,
        default=5.0,
        dest="heartbeat_interval",
        metavar="SECONDS",
        help="liveness-check idle workers this often (0 disables)",
    )
    parser.add_argument(
        "--no-single-flight",
        action="store_true",
        help="do not coalesce concurrent identical requests onto one "
        "execution",
    )
    parser.add_argument(
        "--json",
        action="store_true",
        dest="json_output",
        help="emit one JSON response object per request to stdout "
        "instead of raw payloads",
    )
    parser.add_argument(
        "--print-stats",
        action="store_true",
        dest="print_stats",
        help="dump the service.* and compile statistics to stderr",
    )
    # -fcache[=DIR] and -ftrace-requests[=DIR] are extracted manually
    # (the same nargs="?"-vs-positional hazard as -ftime-trace)
    add_cache_and_stats_arguments(parser)
    parser.add_argument(
        "--metrics-json",
        default=None,
        dest="metrics_json",
        metavar="FILE",
        help="write the service metrics snapshot (counters, gauges, "
        "latency histograms with p50/p95/p99) as JSON",
    )
    parser.add_argument(
        "--metrics-prom",
        default=None,
        dest="metrics_prom",
        metavar="FILE",
        help="write the service metrics in Prometheus text exposition "
        "format",
    )
    parser.add_argument(
        "--log-jsonl",
        default=None,
        dest="log_jsonl",
        metavar="FILE",
        help="append one JSON line per request lifecycle event "
        "(submit/dispatch/retry/.../response), keyed by request and "
        "trace ids",
    )
    return parser


#: where ``-ftrace-requests`` without an explicit directory writes
DEFAULT_TRACE_DIR = "service-traces"


class _DrainOnSignal:
    """SIGTERM/SIGINT -> graceful drain (systemd-style stop protocol),
    in batch and ``--listen`` mode alike.

    First signal: print the notice and call *drain* with the deadline
    (admission closes, in-flight work gets the deadline, state is
    snapshotted, the process exits 0).  Second signal: immediate exit
    with the conventional ``128 + signum``.
    """

    def __init__(self, drain, deadline_s: float) -> None:
        self._drain = drain
        self.deadline_s = deadline_s
        self.triggered = False
        self._previous: dict[int, object] = {}

    def __call__(self, signum: int, frame=None) -> None:
        if self.triggered:
            os._exit(128 + signum)
        self.triggered = True
        name = signal.Signals(signum).name
        print(
            f"miniclang-serve: {name} received: draining "
            f"(deadline {self.deadline_s:.1f}s; send again to "
            "exit immediately)",
            file=sys.stderr,
            flush=True,
        )
        self._drain(self.deadline_s)

    def install(self, loop=None) -> None:
        """Handle both signals on the asyncio *loop* when given, else
        through :func:`signal.signal` until :meth:`restore`."""
        for signum in (signal.SIGTERM, signal.SIGINT):
            try:
                if loop is not None:
                    loop.add_signal_handler(signum, self, signum)
                else:
                    self._previous[signum] = signal.signal(signum, self)
            except (ValueError, OSError, RuntimeError, NotImplementedError):
                pass  # pragma: no cover - non-main thread / platform

    def restore(self) -> None:
        for signum, previous in self._previous.items():
            try:
                signal.signal(signum, previous)
            except (ValueError, OSError):  # pragma: no cover
                pass


def _extract_trace_requests(
    argv: list[str],
) -> tuple[list[str], str | None]:
    """Pull ``-ftrace-requests[=DIR]`` out of *argv*.  Returns the
    remaining argv and the trace directory (None = tracing off)."""
    remaining: list[str] = []
    trace_dir: str | None = None
    for arg in argv:
        if arg == "-ftrace-requests":
            trace_dir = DEFAULT_TRACE_DIR
        elif arg.startswith("-ftrace-requests="):
            trace_dir = arg.split("=", 1)[1] or DEFAULT_TRACE_DIR
        else:
            remaining.append(arg)
    return remaining, trace_dir


def _status_line(request, response: CompileResponse) -> str:
    bits = [f"miniclang-serve: {response.request_id} {request.filename}:"]
    if response.status == STATUS_DEGRADED:
        bits.append(
            f"degraded ({request.mode}->{other_mode(request.mode)})"
        )
    elif response.status == STATUS_OK:
        bits.append(f"ok [{response.mode_used}]")
    else:
        bits.append(response.status)
    bits.append(f"attempts={response.attempts}")
    if response.retries:
        bits.append(f"retries={response.retries}")
    if response.hedged:
        bits.append("hedged")
    if response.cache_hit:
        bits.append("cached")
    if response.coalesced:
        bits.append("coalesced")
    if response.exit_code not in (None, 0):
        bits.append(f"exit={response.exit_code}")
    if response.reproducer_path:
        bits.append(f"reproducer={response.reproducer_path}")
    return " ".join(bits)


def _response_exit_code(response: CompileResponse) -> int:
    """One response -> the exit code it contributes to the batch."""
    if response.status in (STATUS_OK, STATUS_DEGRADED):
        code = response.exit_code
        return int(code) & 0xFF if isinstance(code, int) else EXIT_OK
    if response.status == STATUS_ERROR:
        code = response.exit_code
        if isinstance(code, int) and code != 0:
            return int(code) & 0xFF
        return EXIT_USER_ERROR
    if response.status == STATUS_TIMEOUT:
        return EXIT_TIMEOUT
    if response.status == STATUS_RESOURCE_EXHAUSTED:
        return EXIT_UNAVAILABLE
    # ice and circuit-open (a quarantined input is a persistent
    # internal failure) both diagnose a compiler-side defect
    return EXIT_ICE


def _parse(
    argv: list[str],
) -> tuple[argparse.ArgumentParser, argparse.Namespace]:
    """The parser and the parsed *argv*: ``-fcache`` lands on
    ``args.cache_dir``/``args.cache_durable``, ``-ftrace-requests`` on
    ``args.trace_dir``."""
    argv, trace_dir = _extract_trace_requests(argv)
    parser = build_arg_parser()
    args = parse_args(parser, argv)
    args.trace_dir = trace_dir
    return parser, args


def _service_config(
    args, event_log, shard: int | None = None
) -> ServiceConfig:
    """The service *args* ask for, in batch mode or as ``--listen``
    shard *shard*.  A shard keeps its state in ``state_dir/shard-N``
    (independent breaker boards persist independently).  Every call
    builds its own cache and tracer objects."""
    state_dir = args.state_dir
    if state_dir and shard is not None:
        state_dir = os.path.join(state_dir, f"shard-{shard}")
    return ServiceConfig(
        workers=args.workers,
        queue_capacity=args.queue_capacity,
        deadline_s=args.deadline,
        retry=RetryPolicy(max_attempts=1 + max(0, args.retries)),
        hedge_delay_s=args.hedge_delay,
        allow_degraded=not args.no_degrade,
        quarantine_dir=args.quarantine_dir or None,
        cache=build_cache(args),
        single_flight=not args.no_single_flight,
        state_dir=state_dir,
        worker_max_requests=args.worker_max_requests,
        heartbeat_interval_s=args.heartbeat_interval,
        tracer=(
            TraceRecorder(directory=args.trace_dir)
            if args.trace_dir is not None
            else None
        ),
        event_log=event_log,
    )


def _run_server(args, address, event_log, stats_before: dict) -> int:
    """``--listen`` mode: the asyncio TCP front door over a shard
    router.  Runs until a drain completes (SIGTERM/SIGINT; a second
    signal exits immediately) and exits 0 on a graceful drain."""
    import asyncio

    from repro.service.net import NetServer, NetServerConfig, ShardRouter

    router = ShardRouter(
        [
            _service_config(args, event_log, shard)
            for shard in range(max(1, args.shards))
        ]
    )
    host, port = address
    net_config = NetServerConfig(
        host=host,
        port=port,
        max_connections=args.max_connections,
        frame_timeout_s=args.frame_timeout,
        idle_timeout_s=args.idle_timeout,
    )

    async def _serve() -> None:
        server = NetServer(router, net_config)
        bound_host, bound_port = await server.start()
        # Before the banner: a supervisor may signal as soon as it
        # reads the address, and the default action would skip the drain.
        _DrainOnSignal(server.request_drain, args.drain_timeout).install(
            asyncio.get_running_loop()
        )
        print(
            f"miniclang-serve: listening on {bound_host}:{bound_port} "
            f"({router.shard_count} shard(s), {args.workers} "
            "worker(s) each)",
            file=sys.stderr,
            flush=True,
        )
        await server.serve_until_drained()

    router.start()
    try:
        asyncio.run(_serve())
    finally:
        router.shutdown()
    metrics = router.merged_metrics()
    stats = stat_values(metrics.snapshot())
    print(
        "miniclang-serve: drained: "
        f"{stats.get('service.requests', 0)} request(s) admitted, "
        f"{stats.get('service.responses', 0)} terminal response(s), "
        "state snapshotted; exiting 0",
        file=sys.stderr,
    )
    _write_reports(args, metrics, stats_before)
    # A graceful drain is a successful shutdown (systemd's clean-stop
    # contract) — the accounting line above is the audit trail.
    return EXIT_OK


def _run_batch(args, event_log, stats_before: dict) -> int:
    """Batch mode: one request per input, served in order."""
    requests: list[CompileRequest] = []
    code = EXIT_OK
    for filename, source in read_inputs("miniclang-serve", args.inputs):
        if source is None:
            code = EXIT_USER_ERROR
            continue
        requests.append(
            CompileRequest(
                source=source,
                filename=filename,
                action="run" if args.run else "compile",
                mode=args.mode,
                optimize=args.optimize,
                num_threads=args.num_threads,
                entry=args.entry,
                fuel=args.fuel,
                deadline_s=args.deadline,
                allow_degraded=not args.no_degrade,
                inject_faults=tuple(args.inject_faults),
                fault_attempts=args.fault_attempts,
            )
        )
    config = _service_config(args, event_log)
    with CompileService(config) as service:
        drainer = _DrainOnSignal(service.begin_drain, args.drain_timeout)
        drainer.install()
        try:
            responses = service.process_batch(requests)
        finally:
            drainer.restore()
    for request, response in zip(requests, responses):
        print(_status_line(request, response), file=sys.stderr)
        if response.status not in (STATUS_OK, STATUS_DEGRADED):
            detail = response.diagnostics or response.detail
            if detail:
                print(detail.rstrip("\n"), file=sys.stderr)
        if args.json_output:
            print(json.dumps(response.to_dict()))
        elif response.ok and response.output:
            sys.stdout.write(response.output)
            if not response.output.endswith("\n"):
                sys.stdout.write("\n")
        code = worst_exit_code(code, _response_exit_code(response))
    if drainer.triggered:
        served = sum(1 for r in responses if r.ok)
        shed = sum(
            1
            for r in responses
            if r.status == STATUS_RESOURCE_EXHAUSTED
        )
        print(
            f"miniclang-serve: drained: {served} served, {shed} shed, "
            "state snapshotted; exiting 0",
            file=sys.stderr,
        )
        # A graceful drain is a *successful* shutdown: the shed work
        # got structured answers and the supervisor must not treat the
        # stop as a crash (systemd's clean-stop contract).
        code = EXIT_OK
    if config.tracer is not None and config.tracer.written:
        print(
            f"miniclang-serve: wrote {len(config.tracer.written)} request "
            f"trace(s) to {config.tracer.directory}",
            file=sys.stderr,
        )
    _write_reports(args, service.metrics, stats_before, config.cache)
    return code


def _write_reports(
    args, metrics: MetricsRegistry, stats_before: dict, cache=None
) -> None:
    """Run after the drain.  First the accounting check over the
    service registry *metrics* and the process-wide STATS delta since
    *stats_before*: each broken identity is one ``accounting
    violation`` line on stderr, counted in
    ``service.invariant-violations``.  Then ``--metrics-json`` /
    ``--metrics-prom`` from *metrics*, and the statistics reports: the
    registry's own statistics (``service.requests``, ...) next to the
    STATS delta."""
    snapshot = metrics.snapshot()
    for violation in accounting_violations(
        STATS.delta_since(stats_before), snapshot
    ):
        _INVARIANT_VIOLATIONS.inc()
        print(
            f"miniclang-serve: accounting violation: {violation}",
            file=sys.stderr,
        )
    if args.metrics_json:
        with open(args.metrics_json, "w", encoding="utf-8") as fh:
            json.dump(snapshot, fh, indent=1)
            fh.write("\n")
    if args.metrics_prom:
        with open(args.metrics_prom, "w", encoding="utf-8") as fh:
            fh.write(metrics.render_prometheus())
    _print_stats(
        args, stat_rows(STATS.delta_since(stats_before), snapshot), cache
    )


def main(argv: list[str] | None = None) -> int:
    parser, args = _parse(list(sys.argv[1:] if argv is None else argv))
    address = None
    if args.listen is not None:
        from repro.service.net import parse_address

        if args.inputs:
            parser.error("--listen takes no input files")
        try:
            address = parse_address(args.listen)
        except ValueError as err:
            print(f"miniclang-serve: error: {err}", file=sys.stderr)
            return EXIT_USER_ERROR
    elif not args.inputs:
        parser.error("input files required (or --listen HOST:PORT)")
    event_log = EventLog(path=args.log_jsonl) if args.log_jsonl else None
    stats_before = STATS.snapshot()
    try:
        if address is not None:
            return _run_server(args, address, event_log, stats_before)
        return _run_batch(args, event_log, stats_before)
    finally:
        if event_log is not None:
            event_log.close()


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())

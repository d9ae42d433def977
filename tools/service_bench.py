#!/usr/bin/env python3
"""Service load-test harness: ``PYTHONPATH=src python tools/service_bench.py``.

Replays mixed workloads through :class:`repro.service.CompileService`
and records what the *telemetry stack* reports — the latency histograms,
throughput, and shed/degraded rates come from the service's own metrics
registry, so the benchmark doubles as an end-to-end check that the
telemetry accounting is trustworthy under load.

Workload mixes (each runs on a fresh service + registry):

* **steady** — unique programs (``examples/`` + fuzzer-generated) at
  batch concurrency: the baseline latency profile;
* **cached** — the same sources replayed round after round with the
  response cache on: hot-path latency (``cached`` outcome) vs the cold
  first round;
* **faulted** — a chaos slice (worker kills, hangs, poison inputs)
  with fast retries: latency per terminal outcome under faults;
* **overload** — a burst several times the queue capacity: load
  shedding and the tail it protects.

``--smoke`` runs the first two mixes with small batches (the CI mode);
the default runs all four.  The report lands in ``BENCH_service.json``.
Sanity gates (always enforced): every mix must achieve nonzero
throughput, record a p99 for at least one latency outcome, lose zero
requests (submissions == terminal responses in the python objects),
and pass the one accounting check over its registry
(:func:`repro.service.accounting_violations`).  Accuracy gate: for every
outcome, the registry's ``service_request_duration_seconds`` p50 and
p99 must lie within 2% relative error of the exact order statistic of
the same responses' ``duration_s``.

Usage::

    PYTHONPATH=src python tools/service_bench.py \
        [--smoke] [--batch 24] [--rounds 3] [--duration 30] \
        [--concurrency 2] [--fuzz-seeds 12] [--out BENCH_service.json]
"""

from __future__ import annotations

import argparse
import glob
import json
import math
import os
import shutil
import sys
import tempfile
import time
from typing import Optional

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(REPO_ROOT, "src"))

from repro.cache import CompilationCache  # noqa: E402
from repro.instrument.stats import STATS  # noqa: E402
from repro.service import (  # noqa: E402
    CompileRequest,
    CompileService,
    RetryPolicy,
    ServiceConfig,
    accounting_violations,
)
from repro.service.chaos import chaos_request  # noqa: E402
from repro.testing.generator import generate_program  # noqa: E402


def _corpus(fuzz_seeds: int) -> list[tuple[str, str]]:
    """(name, source) pairs: every example plus generated programs."""
    sources: list[tuple[str, str]] = []
    for path in sorted(
        glob.glob(os.path.join(REPO_ROOT, "examples", "*.c"))
    ):
        with open(path, "r", encoding="utf-8") as fh:
            sources.append((os.path.basename(path), fh.read()))
    for seed in range(1, fuzz_seeds + 1):
        sources.append(
            (f"fuzz-seed-{seed}", generate_program(seed).source)
        )
    return sources


def _steady_batch(args, round_index: int) -> list[CompileRequest]:
    sources = _corpus(args.fuzz_seeds)
    batch = []
    for i in range(args.batch):
        name, source = sources[i % len(sources)]
        batch.append(
            CompileRequest(
                # Unique per (round, slot): no coalescing, no cache.
                source=f"// steady r{round_index} i{i}\n" + source,
                filename=f"{name}#r{round_index}.{i}",
                mode="irbuilder" if i % 2 else "shadow",
            )
        )
    return batch


def _cached_batch(args, round_index: int) -> list[CompileRequest]:
    sources = _corpus(args.fuzz_seeds)
    return [
        CompileRequest(
            # Identical across rounds: round 0 populates the response
            # cache, later rounds replay from it.
            source=sources[i % len(sources)][1],
            filename=sources[i % len(sources)][0],
        )
        for i in range(args.batch)
    ]


def _faulted_batch(args, round_index: int) -> list[CompileRequest]:
    batch = []
    for i in range(args.batch):
        faults: tuple[str, ...] = ()
        fault_attempts = 1
        if i % 8 == 1:
            faults = ("service-worker-exit",)
        elif i % 8 == 3:
            faults = ("service-worker-hang",)
        elif i % 8 == 5:
            faults = ("service-worker",)
            fault_attempts = -1  # poison: fails on every attempt
        batch.append(
            chaos_request(
                i + round_index * args.batch,
                filename=f"faulted-{round_index}.{i}.c",
                mode="irbuilder" if i % 2 else "shadow",
                deadline_s=3.0,
                faults=faults,
                fault_attempts=fault_attempts,
            )
        )
    return batch


def _overload_batch(args, round_index: int) -> list[CompileRequest]:
    sources = _corpus(args.fuzz_seeds)
    return [
        CompileRequest(
            source=f"// burst r{round_index} i{i}\n"
            + sources[i % len(sources)][1],
            filename=f"burst-{round_index}.{i}.c",
        )
        # A burst several times the overload queue capacity.
        for i in range(args.batch * 4)
    ]


def _mix_config(name: str, args, scratch: str) -> ServiceConfig:
    common = dict(
        workers=args.concurrency,
        retry=RetryPolicy(
            max_attempts=3, base_delay_s=0.01, max_delay_s=0.1
        ),
        quarantine_dir=None,
    )
    if name == "steady":
        return ServiceConfig(queue_capacity=args.batch * 8, **common)
    if name == "cached":
        return ServiceConfig(
            queue_capacity=args.batch * 8,
            cache=CompilationCache(os.path.join(scratch, "cache")),
            **common,
        )
    if name == "faulted":
        return ServiceConfig(
            queue_capacity=args.batch * 8,
            deadline_s=3.0,
            breaker_threshold=3,
            **common,
        )
    if name == "overload":
        # Deliberately too small for the burst: sheds are the point.
        return ServiceConfig(
            queue_capacity=max(4, args.batch), **common
        )
    raise ValueError(f"unknown mix {name!r}")


_MIX_BUILDERS = {
    "steady": _steady_batch,
    "cached": _cached_batch,
    "faulted": _faulted_batch,
    "overload": _overload_batch,
}


#: the acceptance gate: registry p50/p99 must lie within this relative
#: error of the exact order statistic of the same requests
QUANTILE_REL_ERROR = 0.02


def _exact_quantile(samples: list[float], q: float) -> float:
    """Nearest-rank order statistic (the rank the registry reports)."""
    data = sorted(samples)
    return data[max(1, math.ceil(q * len(data))) - 1]


def _rel_error(reported: float, truth: float) -> float:
    """Relative error of a registry quantile; an exact 0 is matched
    only by a reported 0."""
    if truth:
        return abs(reported - truth) / truth
    return 0.0 if reported == 0 else math.inf


def _latency_table(
    snapshot: dict, metric: str, exact: Optional[dict] = None
) -> dict:
    """Registry quantiles per outcome; with *exact* (outcome -> raw
    samples) also the exact p50/p99 of the same observations."""
    table = {}
    for row in snapshot.get(metric, {}).get("series", []):
        outcome = row["labels"].get("outcome", "")
        entry = {
            "count": row["count"],
            "p50_s": round(row["p50"], 6),
            "p95_s": round(row["p95"], 6),
            "p99_s": round(row["p99"], 6),
            "mean_s": round(row["sum"] / max(row["count"], 1), 6),
        }
        samples = (exact or {}).get(outcome)
        if samples:
            for key, q in (("p50", 0.5), ("p99", 0.99)):
                truth = _exact_quantile(samples, q)
                entry[f"exact_{key}_s"] = round(truth, 6)
                entry[f"{key}_rel_error"] = round(
                    _rel_error(row[key], truth), 5
                )
        table[outcome or "_"] = entry
    return table


def run_mix(name: str, args, scratch: str) -> dict:
    """Run one workload mix to its duration/round budget and report
    what the metrics registry observed."""
    build = _MIX_BUILDERS[name]
    config = _mix_config(name, args, scratch)
    submitted = 0
    answered = 0
    statuses: dict[str, int] = {}
    durations: dict[str, list[float]] = {}
    rounds = 0
    stats_before = STATS.snapshot()
    started = time.perf_counter()
    with CompileService(config) as service:
        while rounds < args.rounds:
            batch = build(args, rounds)
            responses = service.process_batch(batch)
            submitted += len(batch)
            answered += sum(
                1 for r in responses if r is not None and r.status
            )
            for r in responses:
                statuses[r.status] = statuses.get(r.status, 0) + 1
                durations.setdefault(
                    service._outcome_label(r), []
                ).append(r.duration_s)
            rounds += 1
            if time.perf_counter() - started >= args.duration:
                break
        wall_s = time.perf_counter() - started
        snapshot = service.metrics.snapshot()
    latency = _latency_table(
        snapshot, "service_request_duration_seconds", durations
    )
    total = max(submitted, 1)
    return {
        "rounds": rounds,
        "requests": submitted,
        "responses": answered,
        "lost": submitted - answered,
        "accounting_violations": accounting_violations(
            STATS.delta_since(stats_before), snapshot
        ),
        "wall_s": round(wall_s, 4),
        "throughput_rps": round(submitted / max(wall_s, 1e-9), 2),
        "statuses": dict(sorted(statuses.items())),
        "rates": {
            "shed": round(
                statuses.get("resource-exhausted", 0) / total, 4
            ),
            "degraded": round(statuses.get("degraded", 0) / total, 4),
            "error": round(statuses.get("error", 0) / total, 4),
            "circuit_open": round(
                statuses.get("circuit-open", 0) / total, 4
            ),
        },
        "latency_by_outcome": latency,
        "queue_wait": _latency_table(
            snapshot, "service_queue_wait_seconds"
        ),
    }


# ----------------------------------------------------------------------
# Transport comparison: the same client-side workload through the
# in-process shard router vs over TCP (NetServerThread + NetClient).
# Latencies here are *exact* client-wall medians (statistics.median of
# per-request wall times) of the client's own clock, which the server
# registry never sees.
# ----------------------------------------------------------------------

TRANSPORT_MIXES = ("steady", "cached")

#: the acceptance gate: steady-state p50 over TCP must stay within
#: this factor of the in-process p50
TCP_P50_FACTOR = 2.0


def _exact_latency(samples: list[float]) -> dict:
    import statistics

    data = sorted(samples)
    if not data:
        return {"count": 0, "p50_s": 0.0, "p95_s": 0.0, "mean_s": 0.0}
    return {
        "count": len(data),
        "p50_s": round(statistics.median(data), 6),
        "p95_s": round(
            data[min(len(data) - 1, int(0.95 * len(data)))], 6
        ),
        "mean_s": round(sum(data) / len(data), 6),
        "max_s": round(data[-1], 6),
    }


def _transport_configs(
    mix: str, transport: str, args, scratch: str
) -> list[ServiceConfig]:
    common = dict(
        workers=args.concurrency,
        queue_capacity=args.batch * 8,
        retry=RetryPolicy(
            max_attempts=3, base_delay_s=0.01, max_delay_s=0.1
        ),
        quarantine_dir=None,
    )
    if mix == "cached":
        return [
            ServiceConfig(
                cache=CompilationCache(
                    os.path.join(scratch, f"{transport}-{mix}-cache-{i}")
                ),
                **common,
            )
            for i in range(args.shards)
        ]
    return [ServiceConfig(**common) for _ in range(args.shards)]


def run_transport_mix(
    transport: str, mix: str, args, scratch: str
) -> dict:
    """One workload mix through one transport; exact client-side wall
    latencies plus the merged shard-ledger accounting."""
    import threading

    from repro.service.net import (
        NetClient,
        NetServerConfig,
        NetServerThread,
        ShardRouter,
    )

    configs = _transport_configs(mix, transport, args, scratch)
    sources = _corpus(args.fuzz_seeds)
    per_client = max(4, args.batch // max(1, args.clients))
    # cached needs a cold round to populate before the timed rounds
    rounds = max(2, args.rounds) if mix == "cached" else 1

    host = None
    router = None
    if transport == "tcp":
        host = NetServerThread(configs, NetServerConfig())
        host.start()
    else:
        router = ShardRouter(configs).start()

    durations: list[float] = []
    statuses: dict[str, int] = {}
    duplicates = 0
    stats_before = STATS.snapshot()
    lock = threading.Lock()

    def build_request(tag: int, rnd: int, k: int) -> CompileRequest:
        name, source = sources[k % len(sources)]
        if mix == "steady":
            # Unique per (transport, client, slot): no cache, no
            # coalescing — every request does the full pipeline.
            source = f"// {transport} t{tag} k{k}\n" + source
            name = f"{name}#{transport}.{tag}.{k}"
        return CompileRequest(
            source=source,
            filename=name,
            mode="irbuilder" if k % 2 else "shadow",
        )

    def submit_inproc(request: CompileRequest):
        done = threading.Event()
        box: list = []

        def callback(response) -> None:
            box.append(response)
            done.set()

        router.submit(request, callback)
        done.wait(timeout=120.0)
        return box[0] if box else None

    def worker(tag: int) -> None:
        nonlocal duplicates
        client = None
        if transport == "tcp":
            client = NetClient(host.address, deadline_s=60.0)
            send = client.request
        else:
            send = submit_inproc
        local: list[float] = []
        local_statuses: dict[str, int] = {}
        for rnd in range(rounds):
            for k in range(per_client):
                request = build_request(tag, rnd, k)
                t0 = time.perf_counter()
                response = send(request)
                elapsed = time.perf_counter() - t0
                status = (
                    response.status if response is not None else "lost"
                )
                # cached: time only the warm rounds
                if mix != "cached" or rnd > 0:
                    local.append(elapsed)
                local_statuses[status] = (
                    local_statuses.get(status, 0) + 1
                )
        with lock:
            durations.extend(local)
            for status, n in local_statuses.items():
                statuses[status] = statuses.get(status, 0) + n
            if client is not None:
                duplicates += client.duplicate_responses

    started = time.perf_counter()
    threads = [
        threading.Thread(target=worker, args=(tag,), daemon=True)
        for tag in range(args.clients)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    wall_s = time.perf_counter() - started
    if transport == "tcp":
        host.stop(drain_deadline_s=10.0)
        merged = host.router.merged_metrics().snapshot()
    else:
        router.shutdown()
        merged = router.merged_metrics().snapshot()

    issued = args.clients * per_client * rounds
    return {
        "transport": transport,
        "shards": args.shards,
        "clients": args.clients,
        "requests": issued,
        "wall_s": round(wall_s, 4),
        "throughput_rps": round(issued / max(wall_s, 1e-9), 2),
        "statuses": dict(sorted(statuses.items())),
        "duplicate_responses": duplicates,
        # over TCP the wire ledger (net.*, process-wide) joins the
        # merged shard ledgers
        "accounting_violations": accounting_violations(
            STATS.delta_since(stats_before), merged
        ),
        "client_wall_latency": _exact_latency(durations),
    }


def _check_transport_mix(
    transport: str, mix: str, report: dict
) -> list[str]:
    problems = []
    label = f"{transport}/{mix}"
    if report["statuses"].get("lost", 0):
        problems.append(
            f"{label}: {report['statuses']['lost']} lost request(s)"
        )
    if report["statuses"].get("ok", 0) != report["requests"]:
        problems.append(
            f"{label}: not every request ok: {report['statuses']}"
        )
    if report["duplicate_responses"]:
        problems.append(
            f"{label}: {report['duplicate_responses']} "
            "double-answered request(s)"
        )
    for violation in report["accounting_violations"]:
        problems.append(f"{label}: accounting: {violation}")
    if report["client_wall_latency"]["count"] == 0:
        problems.append(f"{label}: no latency samples")
    return problems


def _check_mix(name: str, report: dict) -> list[str]:
    """The sanity gates every mix must pass."""
    problems = []
    if report["throughput_rps"] <= 0:
        problems.append(f"{name}: zero throughput")
    if report["lost"] != 0:
        problems.append(f"{name}: lost {report['lost']} request(s)")
    for violation in report["accounting_violations"]:
        problems.append(f"{name}: accounting: {violation}")
    if not any(
        row["count"] > 0 and row["p99_s"] > 0
        for row in report["latency_by_outcome"].values()
    ):
        problems.append(f"{name}: no p99 recorded")
    for outcome, row in report["latency_by_outcome"].items():
        for key in ("p50", "p99"):
            error = row.get(f"{key}_rel_error")
            if error is None:
                problems.append(
                    f"{name}/{outcome}: no exact {key} to check the "
                    "registry against"
                )
            elif error > QUANTILE_REL_ERROR:
                problems.append(
                    f"{name}/{outcome}: registry {key} "
                    f"{row[f'{key}_s']}s is {error:.2%} off the exact "
                    f"{row[f'exact_{key}_s']}s (gate: "
                    f"{QUANTILE_REL_ERROR:.0%})"
                )
    return problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="service_bench",
        description="load-test the compile service and record what "
        "its telemetry reports",
    )
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="CI mode: steady + cached mixes only, small batches",
    )
    parser.add_argument("--batch", type=int, default=24)
    parser.add_argument("--rounds", type=int, default=3)
    parser.add_argument(
        "--duration",
        type=float,
        default=60.0,
        metavar="SECONDS",
        help="per-mix wall-clock budget (stops after the round that "
        "crosses it)",
    )
    parser.add_argument(
        "--concurrency",
        type=int,
        default=2,
        help="worker pool size per mix",
    )
    parser.add_argument("--fuzz-seeds", type=int, default=12)
    parser.add_argument("--out", default="BENCH_service.json")
    parser.add_argument(
        "--transport",
        choices=("both", "inproc", "tcp", "none"),
        default="both",
        help="also run the steady+cached mixes through the shard "
        "router in-process and/or over TCP, recording exact "
        "client-wall medians (default: both; 'none' skips)",
    )
    parser.add_argument(
        "--shards",
        type=int,
        default=2,
        help="shard count for the transport comparison",
    )
    parser.add_argument(
        "--clients",
        type=int,
        default=4,
        help="concurrent clients for the transport comparison",
    )
    parser.add_argument(
        "--mixes",
        default=None,
        help="comma-separated subset of "
        + "/".join(_MIX_BUILDERS),
    )
    args = parser.parse_args(argv)

    if args.mixes:
        mix_names = [m.strip() for m in args.mixes.split(",") if m.strip()]
        unknown = set(mix_names) - set(_MIX_BUILDERS)
        if unknown:
            parser.error(f"unknown mixes: {sorted(unknown)}")
    elif args.smoke:
        mix_names = ["steady", "cached"]
        args.batch = min(args.batch, 8)
        args.rounds = min(args.rounds, 2)
        args.fuzz_seeds = min(args.fuzz_seeds, 4)
    else:
        mix_names = list(_MIX_BUILDERS)

    scratch = tempfile.mkdtemp(prefix="miniclang-service-bench-")
    mixes: dict[str, dict] = {}
    problems: list[str] = []
    try:
        for name in mix_names:
            report = run_mix(name, args, scratch)
            mixes[name] = report
            problems.extend(_check_mix(name, report))
            ok_n = report["statuses"].get("ok", 0)
            print(
                f"service-bench: {name}: {report['requests']} reqs in "
                f"{report['wall_s']}s ({report['throughput_rps']} rps) "
                f"| ok={ok_n} shed={report['rates']['shed']:.0%} "
                f"degraded={report['rates']['degraded']:.0%} | "
                + " ".join(
                    f"{o}:p99={row['p99_s']}s"
                    for o, row in sorted(
                        report["latency_by_outcome"].items()
                    )
                )
            )
        transports: dict[str, dict] = {}
        if args.transport != "none":
            transport_names = (
                ["inproc", "tcp"]
                if args.transport == "both"
                else [args.transport]
            )
            for transport in transport_names:
                transports[transport] = {}
                for mix in TRANSPORT_MIXES:
                    t_report = run_transport_mix(
                        transport, mix, args, scratch
                    )
                    transports[transport][mix] = t_report
                    problems.extend(
                        _check_transport_mix(transport, mix, t_report)
                    )
                    lat = t_report["client_wall_latency"]
                    print(
                        f"service-bench: transport {transport}/{mix}: "
                        f"{t_report['requests']} reqs "
                        f"({t_report['throughput_rps']} rps) | "
                        f"p50={lat['p50_s']}s p95={lat['p95_s']}s "
                        f"(exact, n={lat['count']})"
                    )
        if "inproc" in transports and "tcp" in transports:
            inproc_p50 = transports["inproc"]["steady"][
                "client_wall_latency"
            ]["p50_s"]
            tcp_p50 = transports["tcp"]["steady"][
                "client_wall_latency"
            ]["p50_s"]
            ratio = round(tcp_p50 / max(inproc_p50, 1e-9), 3)
            transports["tcp_over_inproc_steady_p50"] = ratio
            print(
                f"service-bench: tcp/inproc steady p50 ratio: {ratio} "
                f"(gate: <= {TCP_P50_FACTOR})"
            )
            if tcp_p50 > TCP_P50_FACTOR * inproc_p50:
                problems.append(
                    f"tcp steady p50 {tcp_p50}s exceeds "
                    f"{TCP_P50_FACTOR}x in-process {inproc_p50}s"
                )
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    report = {
        "tool": "service_bench",
        "smoke": bool(args.smoke),
        "concurrency": args.concurrency,
        "batch": args.batch,
        "rounds": args.rounds,
        "mixes": mixes,
        "transports": transports,
    }
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1)
        fh.write("\n")
    print(f"service-bench: wrote {args.out}")
    if problems:
        for problem in problems:
            print(f"service-bench: FAIL: {problem}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())

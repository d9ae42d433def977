"""The request-accounting identity, checked by
``repro.service.accounting_violations`` over registry snapshots."""

import pytest

from repro.instrument.stats import MetricsRegistry
from repro.service import accounting_violations

LATENCY = "service_request_duration_seconds"


def _record(m: MetricsRegistry, requests=0, status=None, observe=None):
    """Count *requests* admissions, one *status* response, and one
    latency observation of *observe* seconds under that status."""
    m.counter("service.requests").inc(requests)
    if status is not None:
        m.counter("service.responses", labels=("status",)).labels(
            status=status
        ).inc()
    if observe is not None:
        m.histogram(LATENCY, labels=("outcome",)).labels(
            outcome=status or "ok"
        ).observe(observe)


def _service(ok: int = 2, errors: int = 1) -> MetricsRegistry:
    """A drained service's registry: every request answered and
    observed once."""
    m = MetricsRegistry()
    for status, n in (("ok", ok), ("error", errors)):
        for k in range(n):
            _record(m, 1, status, 0.01 * (k + 1))
    m.gauge("service_queue_depth").set(0)
    m.gauge("service_in_flight").set(0)
    return m


def _router(shards: int = 2) -> MetricsRegistry:
    """Router and shard registries merged, as ``merged_metrics`` does:
    shard *i* answers ``i + 2`` requests."""
    merged = MetricsRegistry()
    for i in range(shards):
        merged.merge(_service(ok=i + 1).snapshot())
        merged.counter("net.routed", labels=("shard",)).labels(
            shard=str(i)
        ).inc(i + 2)
        for gauge in ("service_shard_queue_depth", "service_shard_in_flight"):
            merged.gauge(gauge, labels=("shard",)).labels(shard=str(i))
    return merged


def _wire(admitted: int, sent: int, orphaned: int) -> dict:
    """The process-wide ``net.*`` statistics, as a delta."""
    m = MetricsRegistry()
    m.counter("net.requests").inc(admitted)
    m.counter("net.responses-sent").inc(sent)
    m.counter("net.responses-orphaned").inc(orphaned)
    return m.delta_since({})


def _names(snapshots, *parts: str) -> None:
    violations = accounting_violations(*snapshots)
    assert any(all(p in v for p in parts) for v in violations), violations


class TestBalanced:
    def test_no_layer_no_identity(self):
        assert accounting_violations() == accounting_violations({}) == []

    def test_service_snapshot_and_delta(self):
        m = _service()
        assert accounting_violations(m.snapshot()) == []
        before = m.snapshot()
        _record(m, 1, "ok", 0.001)
        assert accounting_violations(m.delta_since(before)) == []

    def test_router_merged_snapshot(self):
        assert accounting_violations(_router().snapshot()) == []

    def test_net_snapshot(self):
        merged = _router().snapshot()
        assert accounting_violations(_wire(5, 3, 2), merged) == []


class TestEachIdentityBroken:
    def test_response_not_counted(self):
        m = _service()
        _record(m, 1, observe=0.5)
        _names([m.snapshot()], "service.requests=4", "service.responses=3")

    def test_response_not_observed(self):
        m = _service()
        _record(m, 1, "ok")
        _names([m.snapshot()], "service.requests=4", f"{LATENCY} count=3")

    def test_buckets_disagree_with_count(self):
        snap = _service().snapshot()
        snap[LATENCY]["series"][0]["buckets"][0][1] += 1
        _names([snap], f"{LATENCY}{{outcome=error}}", "buckets")

    def test_router_count_off(self):
        merged = _router()
        merged.counter("net.routed", labels=("shard",)).labels(
            shard="0"
        ).inc()
        _names([merged.snapshot()], "net.routed=6", "requests=5")

    def test_wire_response_not_counted(self):
        _names(
            [_wire(5, 3, 1), _router().snapshot()],
            "net.requests=5 != net.responses-sent=3",
            "net.responses-orphaned=1",
        )

    def test_wire_requests_off_the_service_ledger(self):
        _names(
            [_wire(9, 8, 1), _router().snapshot()],
            "net.requests=9 != service.requests=5",
        )

    def test_wire_alone_checks_only_the_wire(self):
        assert accounting_violations(_wire(3, 3, 0)) == []
        assert len(accounting_violations(_wire(3, 2, 0))) == 1

    @pytest.mark.parametrize(
        "gauge", ["service_queue_depth", "service_in_flight"]
    )
    def test_service_gauge_not_drained(self, gauge):
        m = _service()
        m.gauge(gauge).set(2)
        _names([m.snapshot()], f"{gauge}=2 after drain")

    @pytest.mark.parametrize(
        "gauge", ["service_shard_queue_depth", "service_shard_in_flight"]
    )
    def test_one_shard_gauge_not_drained(self, gauge):
        merged = _router()
        merged.gauge(gauge, labels=("shard",)).labels(shard="1").set(1)
        _names([merged.snapshot()], f"{gauge}{{shard=1}}=1 after drain")

    def test_merged_gauges_keep_a_busy_shard_visible(self):
        busy, merged = _service(), MetricsRegistry()
        busy.gauge("service_in_flight").set(1)
        merged.merge(busy.snapshot())
        merged.merge(_service().snapshot())
        _names([merged.snapshot()], "service_in_flight=1")

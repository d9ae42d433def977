"""Unit tests for the one metrics registry
(:mod:`repro.instrument.stats`): counters, gauges, log-linear
histograms, snapshots, deltas and the Prometheus exposition."""

from __future__ import annotations

import pytest

from repro.instrument.stats import (
    SUB_BUCKETS,
    MetricsRegistry,
    bucket_bounds,
    bucket_index,
    stat_values,
)


class TestCounterAndGauge:
    def test_counter_monotone(self):
        reg = MetricsRegistry()
        c = reg.counter("requests_total", "help text")
        c.inc()
        c.inc(3)
        assert c.value == 4
        with pytest.raises(ValueError):
            c.inc(-1)

    def test_labeled_series_are_independent(self):
        reg = MetricsRegistry()
        c = reg.counter("responses_total", "", ("status",))
        c.labels(status="ok").inc(2)
        c.labels(status="error").inc()
        assert c.labels(status="ok").value == 2
        assert c.labels(status="error").value == 1

    def test_label_names_validated(self):
        reg = MetricsRegistry()
        c = reg.counter("x_total", "", ("status",))
        with pytest.raises(ValueError):
            c.labels(wrong="ok")
        with pytest.raises(ValueError):
            c.inc()  # labeled metric requires .labels(...)

    def test_gauge_up_and_down(self):
        reg = MetricsRegistry()
        g = reg.gauge("queue_depth")
        g.set(5)
        g.inc()
        g.dec(2)
        assert g.value == 4

    def test_reregistration_conflicts_rejected(self):
        reg = MetricsRegistry()
        reg.counter("a_total")
        with pytest.raises(ValueError):
            reg.gauge("a_total")
        reg.counter("lbl", "", ("x",))
        with pytest.raises(ValueError):
            reg.counter("lbl", "", ("y",))


class TestHistogram:
    def test_buckets_are_upper_inclusive_and_log_linear(self):
        for value in (1.0, 0.75, 3e-6, 42.0, 1.0 + 1 / SUB_BUCKETS):
            lo, hi = bucket_bounds(bucket_index(value))
            assert lo < value <= hi
            assert (hi - lo) / lo <= 1 / SUB_BUCKETS
        # powers of two and sub-bucket edges close their bucket
        assert bucket_bounds(bucket_index(1.0))[1] == 1.0
        assert bucket_index(1.0) + 1 == bucket_index(1.0 + 1e-12)

    def test_quantiles_within_two_percent_of_exact(self):
        reg = MetricsRegistry()
        h = reg.histogram("lat")
        values = [0.001, 0.002, 0.004, 0.02, 0.2, 2.0]
        for v in values:
            h.observe(v)
        for q in (0.5, 0.95, 0.99):
            exact = sorted(values)[
                max(0, int(-(-q * len(values) // 1)) - 1)
            ]
            assert abs(h.quantile(q) - exact) <= 0.02 * exact

    def test_quantile_of_empty_histogram_is_zero(self):
        reg = MetricsRegistry()
        assert reg.histogram("lat").quantile(0.99) == 0.0

    def test_non_positive_observations_report_zero(self):
        reg = MetricsRegistry()
        h = reg.histogram("lat")
        h.observe(0.0)
        h.observe(-1.0)
        assert h.quantile(0.99) == 0.0

    def test_no_overflow_bucket_across_a_wide_range(self):
        reg = MetricsRegistry()
        h = reg.histogram("lat")
        h.observe(1e-7)
        h.observe(1e5)
        assert abs(h.quantile(0.99) - 1e5) <= 0.02 * 1e5
        assert abs(h.quantile(0.5) - 1e-7) <= 0.02 * 1e-7


class TestSnapshotAndMerge:
    def _registry(self) -> MetricsRegistry:
        reg = MetricsRegistry()
        reg.counter("reqs_total", "r", ("status",)).labels(
            status="ok"
        ).inc(3)
        reg.gauge("depth").set(7)
        h = reg.histogram("lat", "l", ("outcome",))
        h.labels(outcome="ok").observe(0.05)
        h.labels(outcome="ok").observe(0.5)
        return reg

    def test_snapshot_roundtrips_through_merge(self):
        snap = self._registry().snapshot()
        merged = MetricsRegistry()
        merged.merge(snap)
        merged.merge(snap)
        out = merged.snapshot()
        ok_row = out["reqs_total"]["series"][0]
        assert ok_row["value"] == 6
        lat_row = out["lat"]["series"][0]
        assert lat_row["count"] == 4
        assert lat_row["buckets"] == [
            [bucket_index(0.05), 2],
            [bucket_index(0.5), 2],
        ]
        # gauges take the max, not the sum
        assert out["depth"]["series"][0]["value"] == 7

    def test_delta_since_replays_exactly_the_window(self):
        reg = self._registry()
        before = reg.snapshot()
        reg.counter("reqs_total", "r", ("status",)).labels(
            status="ok"
        ).inc(2)
        reg.histogram("lat", "l", ("outcome",)).labels(
            outcome="ok"
        ).observe(7.0)
        reg.gauge("depth").set(9)
        delta = reg.delta_since(before)
        assert set(delta) == {"reqs_total", "lat"}  # gauges carry none
        assert delta["reqs_total"]["series"][0]["value"] == 2
        assert delta["lat"]["series"][0]["buckets"] == [
            [bucket_index(7.0), 1]
        ]
        replay = MetricsRegistry()
        replay.merge(before)
        replay.merge(delta)
        assert replay.snapshot()["lat"] == reg.snapshot()["lat"]

    def test_stat_counters_sum_their_series(self):
        reg = MetricsRegistry()
        c = reg.counter("owner.x", "", ("k",))
        c.labels(k="a").inc(2)
        c.labels(k="b").inc(3)
        reg.counter("not_a_stat_total").inc()
        assert stat_values(reg.snapshot()) == {"owner.x": 5}

    def test_snapshot_has_precomputed_percentiles(self):
        snap = self._registry().snapshot()
        row = snap["lat"]["series"][0]
        assert {"p50", "p95", "p99"} <= set(row)

    def test_snapshot_is_json_safe_and_sorted(self):
        import json

        snap = self._registry().snapshot()
        assert list(snap) == sorted(snap)
        json.dumps(snap)


class TestPrometheusRendering:
    def test_text_exposition_format(self):
        reg = MetricsRegistry()
        reg.counter("reqs_total", "requests", ("status",)).labels(
            status="ok"
        ).inc(2)
        h = reg.histogram("lat_seconds", "latency")
        h.observe(0.05)
        h.observe(0.5)
        h.observe(9.0)
        text = reg.render_prometheus()
        assert "# TYPE reqs_total counter" in text
        assert 'reqs_total{status="ok"} 2' in text
        assert "# TYPE lat_seconds histogram" in text
        # cumulative buckets at the occupied buckets' upper bounds
        # (0.5 and 9 are bucket edges), le-labelled, +Inf equals the count
        assert 'lat_seconds_bucket{le="0.05078125"} 1' in text
        assert 'lat_seconds_bucket{le="0.5"} 2' in text
        assert 'lat_seconds_bucket{le="9"} 3' in text
        assert 'lat_seconds_bucket{le="+Inf"} 3' in text
        assert "lat_seconds_count 3" in text
        assert text.endswith("\n")

    def test_statistic_names_export_as_legal_counter_names(self):
        reg = MetricsRegistry()
        reg.counter("cache.disk-hits", "hits").inc()
        text = reg.render_prometheus()
        assert "# TYPE cache_disk_hits_total counter" in text
        assert "cache_disk_hits_total 1" in text

"""Property-based tests (hypothesis) for the telemetry layer.

The metrics registry's whole design bet is that histograms sharing one
fixed log-linear layout merge *exactly* — so merging must be
associative and commutative — and that the reported p50/p95/p99 are
within 2% relative error of the exact order statistic no matter how
observations are distributed or split across processes.  The tracing
properties cover the profiler and the parent's merge step: spans the
profiler records for any properly nested scope walk have no orphan
parents and nest inside them, and clock alignment + clamping keeps
children inside their parents for any clock offset and clamp window.
"""

from __future__ import annotations

import math

from hypothesis import given, settings, strategies as st

from repro.instrument.stats import SNAPSHOT_QUANTILES, MetricsRegistry
from repro.instrument.telemetry import RequestTrace
from repro.instrument.timetrace import (
    SpanRecord,
    TimeTraceProfiler,
    new_span_id,
)

FAST = settings(max_examples=60, deadline=None)

observations = st.lists(
    st.floats(
        min_value=1e-6,
        max_value=100.0,
        allow_nan=False,
        allow_infinity=False,
    ),
    max_size=40,
)


def _hist_snapshot(values: list[float]) -> dict:
    reg = MetricsRegistry()
    h = reg.histogram("lat", "l", ("k",))
    for v in values:
        h.labels(k="a").observe(v)
    return reg.snapshot()


def _merged(*snaps: dict) -> dict:
    reg = MetricsRegistry()
    for snap in snaps:
        reg.merge(snap)
    return reg.snapshot()


def _exact_parts(snap: dict) -> tuple[dict, list[float]]:
    """Split a snapshot into its exact part (bucket counts, totals,
    quantiles — everything but the float ``sum`` accumulators, which
    are only reproducible up to float addition order) and the sums."""
    import copy

    exact = copy.deepcopy(snap)
    sums: list[float] = []
    for metric in exact.values():
        for row in metric.get("series", []):
            if "sum" in row:
                sums.append(row.pop("sum"))
    return exact, sums


def _assert_equivalent(left: dict, right: dict) -> None:
    import pytest

    exact_l, sums_l = _exact_parts(left)
    exact_r, sums_r = _exact_parts(right)
    assert exact_l == exact_r
    # snapshot() quantizes each sum to 9 decimals, so every snapshot
    # that crosses a merge contributes up to 0.5e-9 of rounding error
    # on top of float addition order (e.g. two snapshots of [1/3] merge
    # to 0.666666666 while the union stream rounds to 0.666666667).
    assert sums_l == pytest.approx(sums_r, rel=1e-9, abs=1e-8)


class TestHistogramMergeAlgebra:
    @FAST
    @given(observations, observations)
    def test_merge_commutative(self, xs, ys):
        a, b = _hist_snapshot(xs), _hist_snapshot(ys)
        _assert_equivalent(_merged(a, b), _merged(b, a))

    @FAST
    @given(observations, observations, observations)
    def test_merge_associative(self, xs, ys, zs):
        a, b, c = map(_hist_snapshot, (xs, ys, zs))
        _assert_equivalent(
            _merged(_merged(a, b), c), _merged(a, _merged(b, c))
        )

    @FAST
    @given(observations, observations)
    def test_merge_equals_union_stream(self, xs, ys):
        # Splitting a stream across two processes and merging loses
        # nothing: identical to observing the union in one registry.
        _assert_equivalent(
            _merged(_hist_snapshot(xs), _hist_snapshot(ys)),
            _hist_snapshot(xs + ys),
        )


class TestQuantileError:
    @FAST
    @given(observations.filter(bool))
    def test_snapshot_quantiles_within_two_percent_of_exact(
        self, values
    ):
        reg = MetricsRegistry()
        h = reg.histogram("lat")
        for v in values:
            h.observe(v)
        row = reg.snapshot()["lat"]["series"][0]
        for key, q in SNAPSHOT_QUANTILES:
            rank = max(1, min(len(values), math.ceil(q * len(values))))
            exact = sorted(values)[rank - 1]
            assert abs(row[key] - exact) <= 0.02 * exact


@st.composite
def scope_walks(draw) -> list[str]:
    """A random push/pop walk: what scoped ``with`` instrumentation
    does to the profiler's open-scope stack."""
    return draw(
        st.lists(st.sampled_from(["push", "pop"]), min_size=1, max_size=30)
    )


def _profiled_spans(walk: list[str], parent_id) -> list[SpanRecord]:
    profiler = TimeTraceProfiler(trace_id="t1", parent_id=parent_id)
    open_scopes = []
    for serial, op in enumerate(walk):
        if op == "push":
            scope = profiler.scope(f"scope{serial}")
            scope.__enter__()
            open_scopes.append(scope)
        elif open_scopes:
            open_scopes.pop().__exit__(None, None, None)
    while open_scopes:
        open_scopes.pop().__exit__(None, None, None)
    return profiler.spans


class TestSpanMerge:
    @FAST
    @given(scope_walks())
    def test_profiled_spans_have_no_orphans_and_nest(self, walk):
        spans = _profiled_spans(walk, "root")
        ids = {s.span_id for s in spans}
        by_id = {s.span_id: s for s in spans}
        for span in spans:
            assert span.parent_id == "root" or span.parent_id in ids
            if span.parent_id in by_id:
                parent = by_id[span.parent_id]
                assert parent.start_ns <= span.start_ns
                assert span.end_ns <= parent.end_ns

    @FAST
    @given(
        scope_walks(),
        st.integers(min_value=-(10**12), max_value=10**12),
        st.integers(min_value=0, max_value=10**6),
        st.integers(min_value=1, max_value=10**6),
    )
    def test_adopted_spans_stay_clamped_and_nested(
        self, walk, skew, clamp_start, clamp_width
    ):
        spans = _profiled_spans(walk, None)
        clamp_end = clamp_start + clamp_width
        trace = RequestTrace("t1", "r1")
        attempt_id = new_span_id()
        # a worker whose perf-counter origin differs by `skew`
        worker_anchor = (
            trace._anchor[0],
            trace._anchor[1] + skew,
        )
        trace.merge_worker_spans(
            [s.to_dict() for s in spans],
            worker_anchor,
            attempt_id,
            clamp_start_ns=clamp_start,
            clamp_end_ns=clamp_end,
        )
        adopted = trace.spans
        by_id = {s.span_id: s for s in adopted}
        for span in adopted:
            # inside the attempt window, and still a valid interval
            assert clamp_start <= span.start_ns <= span.end_ns
            assert span.end_ns <= clamp_end
            # no orphans: parents are the attempt span or adopted spans
            assert (
                span.parent_id == attempt_id
                or span.parent_id in by_id
            )
            if span.parent_id in by_id:
                parent = by_id[span.parent_id]
                assert parent.start_ns <= span.start_ns
                assert span.end_ns <= parent.end_ns

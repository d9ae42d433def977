"""One counter registry for compiler statistics and service metrics.

:class:`MetricsRegistry` holds Prometheus-style families — counters,
gauges and histograms with optional label dimensions.  LLVM ``-stats``
counters are label-free counters in the process-global :data:`STATS`
registry, registered once at module scope::

    from repro.instrument import get_statistic

    NODES_BUILT = get_statistic(
        "shadow", "nodes-built", "Shadow AST nodes constructed"
    )
    ...
    NODES_BUILT.inc()

and rendered in the familiar aligned dump::

    ===-------------------------------------------------------------===
                          ... Statistics Collected ...
    ===-------------------------------------------------------------===
      142 shadow - Shadow AST nodes constructed

A counter is a *statistic* when its name is dotted (``owner.name``);
:func:`stat_rows` reads the statistics out of any snapshot, summing
labelled series, so a service counter such as ``service.requests``
shows up in ``-print-stats``, and in the Prometheus exposition as
``service_requests_total``, under one count.

Per-compilation figures are registry *deltas*: :meth:`snapshot` before,
:meth:`delta_since` after.  A delta has the snapshot's form minus the
precomputed quantiles, so a worker ships one per attempt and the parent
folds it in with :meth:`merge`.

Histograms share one fixed log-linear layout (the DDSketch idea,
Masson, Rim & Lee, VLDB 2019): every power of two is split into
:data:`SUB_BUCKETS` equal-width buckets ``(lo, hi]``, so a quantile
reported as its bucket midpoint is within ``1 / (2 * SUB_BUCKETS)``
(1.6%) relative error of the exact order statistic.  The layout is the
same in every process, so a merge is exact element-wise addition of the
sparse bucket counts.

Everything is single-threaded plain python, so no locking is needed.
"""

from __future__ import annotations

import math
from typing import Iterator, Sequence

#: equal-width buckets per power of two; the relative error of a
#: reported quantile is at most ``1 / (2 * SUB_BUCKETS)``
SUB_BUCKETS = 32

#: bucket index of observations <= 0
ZERO_BUCKET = -(1 << 20)

#: the quantiles every histogram snapshot precomputes
SNAPSHOT_QUANTILES: tuple[tuple[str, float], ...] = (
    ("p50", 0.50),
    ("p95", 0.95),
    ("p99", 0.99),
)


def bucket_index(value: float) -> int:
    """The bucket ``(lo, hi]`` holding *value*: exact, from the float's
    own exponent and mantissa bits."""
    if not value > 0.0:
        return ZERO_BUCKET
    mantissa, exponent = math.frexp(value)
    scaled = (2.0 * mantissa - 1.0) * SUB_BUCKETS
    return (exponent - 1) * SUB_BUCKETS + math.ceil(scaled) - 1


def bucket_bounds(index: int) -> tuple[float, float]:
    if index == ZERO_BUCKET:
        return (0.0, 0.0)
    octave, sub = divmod(index, SUB_BUCKETS)
    return (
        math.ldexp(1.0 + sub / SUB_BUCKETS, octave),
        math.ldexp(1.0 + (sub + 1) / SUB_BUCKETS, octave),
    )


def _label_key(
    label_names: tuple[str, ...], values: dict[str, str]
) -> tuple[str, ...]:
    if set(label_names) != set(values):
        raise ValueError(
            f"labels {sorted(values)} do not match declared "
            f"label names {list(label_names)}"
        )
    return tuple(str(values[name]) for name in label_names)


class _CounterCell:
    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0

    def inc(self, n: float = 1) -> None:
        if n < 0:
            raise ValueError("counters only go up")
        self.value += n


class _GaugeCell:
    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def set(self, v: float) -> None:
        self.value = v

    def inc(self, n: float = 1.0) -> None:
        self.value += n

    def dec(self, n: float = 1.0) -> None:
        self.value -= n


class _HistogramCell:
    """One histogram series: sparse ``bucket index -> count``."""

    __slots__ = ("counts", "total", "sum")

    def __init__(self) -> None:
        self.counts: dict[int, int] = {}
        self.total = 0
        self.sum = 0.0

    def observe(self, value: float) -> None:
        index = bucket_index(value)
        self.counts[index] = self.counts.get(index, 0) + 1
        self.total += 1
        self.sum += value

    def quantile(self, q: float) -> float:
        """Midpoint of the bucket holding the nearest-rank *q*-quantile
        (0.0 for an empty histogram)."""
        if self.total == 0:
            return 0.0
        rank = max(1, min(self.total, math.ceil(q * self.total)))
        cumulative = 0
        for index in sorted(self.counts):
            cumulative += self.counts[index]
            if cumulative >= rank:
                lo, hi = bucket_bounds(index)
                return (lo + hi) / 2
        raise AssertionError("bucket counts disagree with total")

    def add(self, row: dict, sign: int) -> None:
        for index, count in row["buckets"]:
            count = self.counts.get(index, 0) + sign * count
            if count:
                self.counts[index] = count
            else:
                self.counts.pop(index, None)
        self.total += sign * row["count"]
        self.sum += sign * row["sum"]


_CELLS = {
    "counter": _CounterCell,
    "gauge": _GaugeCell,
    "histogram": _HistogramCell,
}


class Metric:
    """One named family of series, one per label-value combination.
    A label-free family has exactly one series, used directly through
    :meth:`inc` / :meth:`set` / :meth:`observe`."""

    def __init__(
        self,
        kind: str,
        name: str,
        help: str = "",
        label_names: Sequence[str] = (),
    ) -> None:
        self.kind = kind
        self.name = name
        self.help = help
        self.label_names = tuple(label_names)
        self._series: dict[tuple[str, ...], object] = {}
        if not self.label_names:
            self._series[()] = _CELLS[kind]()

    def labels(self, **values: str):
        """The series cell for one label-value combination (created on
        first use, like prometheus_client)."""
        key = _label_key(self.label_names, values)
        cell = self._series.get(key)
        if cell is None:
            cell = self._series[key] = _CELLS[self.kind]()
        return cell

    def _cell(self):
        cell = self._series.get(())
        if cell is None:
            raise ValueError(
                f"metric {self.name} has labels "
                f"{list(self.label_names)}; use .labels(...)"
            )
        return cell

    def inc(self, n: float = 1) -> None:
        self._cell().inc(n)

    def dec(self, n: float = 1.0) -> None:
        self._cell().dec(n)

    def set(self, v: float) -> None:
        self._cell().set(v)

    def observe(self, value: float) -> None:
        self._cell().observe(value)

    def quantile(self, q: float) -> float:
        return self._cell().quantile(q)

    @property
    def value(self) -> float:
        return self._cell().value

    def series(self) -> Iterator[tuple[dict[str, str], object]]:
        for key, cell in sorted(self._series.items()):
            yield dict(zip(self.label_names, key)), cell


class MetricsRegistry:
    """Registry of every metric family one process (or one service
    instance) exports.  Families are created on first use and reused on
    re-registration (kind and label names must agree)."""

    def __init__(self) -> None:
        self._metrics: dict[str, Metric] = {}

    # -- registration ---------------------------------------------------
    def _register(self, kind, name, help, labels) -> Metric:
        metric = self._metrics.get(name)
        if metric is None:
            metric = Metric(kind, name, help, labels)
            self._metrics[name] = metric
        elif metric.kind != kind:
            raise ValueError(
                f"metric {name} already registered as {metric.kind}"
            )
        elif metric.label_names != tuple(labels):
            raise ValueError(
                f"metric {name} re-registered with different labels"
            )
        return metric

    def counter(
        self, name: str, help: str = "", labels: Sequence[str] = ()
    ) -> Metric:
        return self._register("counter", name, help, labels)

    def gauge(
        self, name: str, help: str = "", labels: Sequence[str] = ()
    ) -> Metric:
        return self._register("gauge", name, help, labels)

    def histogram(
        self, name: str, help: str = "", labels: Sequence[str] = ()
    ) -> Metric:
        return self._register("histogram", name, help, labels)

    # -- JSON snapshot, delta, merge ------------------------------------
    @staticmethod
    def _entry(metric: Metric, rows: list[dict]) -> dict:
        return {
            "type": metric.kind,
            "help": metric.help,
            "labels": list(metric.label_names),
            "series": rows,
        }

    @staticmethod
    def _row(metric: Metric, key: tuple[str, ...], cell) -> dict:
        row: dict = {"labels": dict(zip(metric.label_names, key))}
        if metric.kind != "histogram":
            row["value"] = cell.value
            return row
        row["count"] = cell.total
        row["sum"] = round(cell.sum, 9)
        row["buckets"] = sorted([i, c] for i, c in cell.counts.items())
        return row

    def snapshot(self) -> dict:
        """JSON-serializable view of every series, histograms with
        their :data:`SNAPSHOT_QUANTILES`: the ``--metrics-json``
        artifact, and a valid :meth:`merge` input."""
        out = {}
        for name, metric in sorted(self._metrics.items()):
            rows = []
            for key, cell in sorted(metric._series.items()):
                row = self._row(metric, key, cell)
                if metric.kind == "histogram":
                    for q_name, q in SNAPSHOT_QUANTILES:
                        row[q_name] = cell.quantile(q)
                rows.append(row)
            out[name] = self._entry(metric, rows)
        return out

    def merge(self, snapshot: dict) -> None:
        """Fold another registry's :meth:`snapshot` (or delta) into this
        one.  Counters and histogram buckets add — exact, because every
        process shares the one bucket layout; gauges take the maximum (a
        merged instantaneous value has no single truth; max preserves
        the high-water mark)."""
        for name, entry in snapshot.items():
            kind = entry["type"]
            metric = self._register(
                kind,
                name,
                entry.get("help", ""),
                tuple(entry.get("labels", ())),
            )
            for row in entry.get("series", ()):
                cell = metric.labels(**row.get("labels", {}))
                if kind == "counter":
                    cell.inc(row["value"])
                elif kind == "gauge":
                    cell.set(max(cell.value, row["value"]))
                else:
                    cell.add(row, 1)

    def delta_since(self, before: dict) -> dict:
        """What this registry counted since the *before* snapshot: the
        counter and histogram series that advanced, in snapshot form
        without quantiles (so ``merge(delta)`` replays exactly that
        window; ``delta_since({})`` is everything counted so far).
        Gauges are instantaneous and carry no delta."""
        delta = {}
        for name, metric in sorted(self._metrics.items()):
            if metric.kind == "gauge":
                continue
            previous = {
                tuple(row["labels"][n] for n in metric.label_names): row
                for row in before.get(name, {}).get("series", ())
            }
            rows = []
            for key, cell in sorted(metric._series.items()):
                prev = previous.get(key)
                if metric.kind == "counter":
                    window = _CounterCell()
                    window.value = cell.value - (prev["value"] if prev else 0)
                    changed = window.value
                else:
                    window = _HistogramCell()
                    window.counts = dict(cell.counts)
                    window.total, window.sum = cell.total, cell.sum
                    if prev is not None:
                        window.add(prev, -1)
                    changed = window.total
                if changed:
                    rows.append(self._row(metric, key, window))
            if rows:
                delta[name] = self._entry(metric, rows)
        return delta

    # -- Prometheus text exposition ------------------------------------
    @staticmethod
    def _fmt_labels(label_values: dict[str, str]) -> str:
        if not label_values:
            return ""
        inner = ",".join(
            f'{k}="{v}"' for k, v in sorted(label_values.items())
        )
        return "{" + inner + "}"

    @staticmethod
    def _fmt_number(v: float) -> str:
        if isinstance(v, float) and v.is_integer():
            return str(int(v))
        return repr(v)

    def render_prometheus(self) -> str:
        """Prometheus text exposition format (version 0.0.4); histogram
        ``le`` bounds are the upper bounds of the occupied buckets."""
        lines: list[str] = []
        for key in sorted(self._metrics):
            metric = self._metrics[key]
            # A statistic (``cache.disk-hits``) exports as a legal
            # Prometheus name (``cache_disk_hits_total``).
            name = key.replace(".", "_").replace("-", "_")
            if name != key and metric.kind == "counter":
                name += "_total"
            if metric.help:
                lines.append(f"# HELP {name} {metric.help}")
            lines.append(f"# TYPE {name} {metric.kind}")
            for label_values, cell in metric.series():
                labels = self._fmt_labels(label_values)
                if metric.kind != "histogram":
                    lines.append(
                        f"{name}{labels} {self._fmt_number(cell.value)}"
                    )
                    continue
                cumulative = 0
                for index in sorted(cell.counts):
                    cumulative += cell.counts[index]
                    le = self._fmt_number(bucket_bounds(index)[1])
                    le_labels = self._fmt_labels({**label_values, "le": le})
                    lines.append(f"{name}_bucket{le_labels} {cumulative}")
                inf_labels = self._fmt_labels({**label_values, "le": "+Inf"})
                lines.append(f"{name}_bucket{inf_labels} {cell.total}")
                lines.append(
                    f"{name}_sum{labels} "
                    f"{self._fmt_number(round(cell.sum, 9))}"
                )
                lines.append(f"{name}_count{labels} {cell.total}")
        return "\n".join(lines) + ("\n" if lines else "")


# ----------------------------------------------------------------------
# The -stats view
# ----------------------------------------------------------------------
def stat_rows(*snapshots: dict) -> dict[str, tuple[int, str]]:
    """``stat name -> (value, description)`` for every statistic (dotted
    counter name) in *snapshots* (snapshots or deltas), labelled series summed and
    zeros dropped."""
    rows: dict[str, tuple[int, str]] = {}
    for snapshot in snapshots:
        for name, entry in snapshot.items():
            if entry["type"] != "counter" or "." not in name:
                continue
            value = sum(row["value"] for row in entry["series"])
            if value:
                desc = entry.get("help") or name.partition(".")[2]
                rows[name] = (rows.get(name, (0,))[0] + value, desc)
    return rows


def stat_values(*snapshots: dict) -> dict[str, int]:
    """The ``--stats-json`` / ``CompileResult.stats`` form of
    :func:`stat_rows`, keys sorted."""
    rows = stat_rows(*snapshots)
    return {name: rows[name][0] for name in sorted(rows)}


def render_stats_text(rows: dict[str, tuple[int, str]]) -> str:
    """The LLVM ``-stats`` dump of :func:`stat_rows` output."""
    if not rows:
        return ""
    table = [
        (value, name.partition(".")[0], desc)
        for name, (value, desc) in sorted(rows.items())
    ]
    value_width = max(len(str(v)) for v, _, _ in table)
    owner_width = max(len(o) for _, o, _ in table)
    lines = [
        "===" + "-" * 61 + "===",
        "                    ... Statistics Collected ...",
        "===" + "-" * 61 + "===",
    ]
    for value, owner, desc in table:
        lines.append(
            f"{value:>{value_width}} {owner:<{owner_width}} - {desc}"
        )
    return "\n".join(lines)


#: the process-wide registry (LLVM's ``StatisticInfo`` list)
STATS = MetricsRegistry()


def get_statistic(owner: str, name: str, desc: str = "") -> Metric:
    """Module-scope registration helper (LLVM's ``STATISTIC`` macro):
    a label-free counter in :data:`STATS`."""
    return STATS.counter(f"{owner}.{name}", desc)

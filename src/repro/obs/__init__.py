"""Structured run observability: one metrics pipeline plus an event stream.

The simulator's core claim is a *timing-overlap* claim — CAGC hides the
fingerprint cost inside erase windows — so end-of-run aggregates are not
enough to trust it.  This package adds the instrumentation layer the
rest of the stack threads through:

* :class:`DeviceMetrics` / :class:`ArrayMetrics` (``repro.obs.metrics``)
  — the only live aggregator: typed Counter/Gauge/Histogram handles
  resolved once at attach time, per-device/per-tenant label dimensions,
  and a simulated-time :class:`~repro.obs.series.TimeSeriesRecorder`
  whose columns (free fraction, blocks erased, pages migrated, GC busy
  time, windowed tail latency, ...) are the run's time series.  On top
  of its frozen :class:`MetricsSnapshot` sit the exporters
  (``repro.obs.export``), declarative SLO monitors with burn-rate
  evaluation (``repro.obs.slo``) and cross-run regression diffing
  (``repro.obs.compare``);
* :class:`LatencyHistogram` (``repro.obs.telemetry``) — the log-bucket
  geometry behind every registry histogram, plus ``summary_rows``, the
  ``report`` table of one run;
* :class:`Tracer` (``repro.obs.trace``) — the event stream only: typed
  spans and instant events in simulated-time coordinates, one track per
  pipeline resource (foreground I/O, GC phases, each hash lane),
  exportable as JSONL or Chrome trace-event JSON loadable in Perfetto /
  ``chrome://tracing``;
* :mod:`repro.obs.log` — the one logger the CLI and scripts share
  (``--quiet`` / ``--verbose``);
* :class:`Heartbeat` (``repro.obs.heartbeat``) — wall-clock progress
  lines (sim time, rolling ops/s, GC collects, ETA) to stderr for long
  replays, driven by a metrics bundle (``DeviceMetrics(heartbeat=...)``)
  at the time-series samples it already takes.

A device has three observer slots: ``tracer``, ``metrics`` and the
post-GC ``gc_hook`` (the differential oracle's invariant checker).
Every instrumentation site in the hot path is a single
``if x is not None`` predicated call, so a run without observers
pays one attribute test per site and nothing more — the property the
``benchguard`` overhead test pins against ``BENCH_throughput.json``.
"""

from repro.obs.compare import compare_snapshots
from repro.obs.export import prometheus_text, series_csv, series_jsonl
from repro.obs.heartbeat import Heartbeat
from repro.obs.metrics import (
    ArrayMetrics,
    DeviceMetrics,
    MetricsRegistry,
    MetricsSnapshot,
)
from repro.obs.series import TimeSeriesRecorder
from repro.obs.slo import SLObjective, default_objectives, evaluate_slos
from repro.obs.telemetry import LatencyHistogram
from repro.obs.trace import (
    TRACK_GC,
    TRACK_GC_READ,
    TRACK_GC_WRITE,
    TRACK_IO,
    TRACK_KERNEL,
    TraceEvent,
    Tracer,
    hash_lane_track,
    kernel_attribution,
    validate_chrome_trace,
)

__all__ = [
    "ArrayMetrics",
    "DeviceMetrics",
    "Heartbeat",
    "LatencyHistogram",
    "MetricsRegistry",
    "MetricsSnapshot",
    "SLObjective",
    "TimeSeriesRecorder",
    "compare_snapshots",
    "default_objectives",
    "evaluate_slos",
    "prometheus_text",
    "series_csv",
    "series_jsonl",
    "TRACK_GC",
    "TRACK_GC_READ",
    "TRACK_GC_WRITE",
    "TRACK_IO",
    "TRACK_KERNEL",
    "kernel_attribution",
    "TraceEvent",
    "Tracer",
    "hash_lane_track",
    "validate_chrome_trace",
]

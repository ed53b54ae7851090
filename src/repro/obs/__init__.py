"""Observability substrate: structured tracing, metrics, profiling.

Three pillars, all opt-in and all observation-only:

- :class:`~repro.obs.tracer.SimTracer` — a bounded buffer of structured
  events on two clocks (simulated seconds and wall-clock seconds),
  exportable as JSONL and as Chrome trace-event JSON loadable in
  Perfetto.  The simulator emits sim-time events (gateway sleep/wake/
  boot segments, BH2 decision rounds, Optimal solves,
  churn/rescue/drop); the sweep engine and supervisor emit wall-clock
  spans (trace build, kernel run, store put, retries/respawns).
- :class:`~repro.obs.metrics.MetricsRegistry` — a process-local registry
  of counters/gauges/histograms whose plain-dict snapshots workers ship
  back to the parent, where the engine merges them into the sweep-wide
  view surfaced by ``repro-access sweep`` tables and ``--json``.
- the ``timings.jsonl`` ledger — one line per executed-and-persisted
  run, written beside the ``runs/`` records by the store, summarised by
  ``repro-access obs summary``.

On top of the substrate sit the insight layers:

- :mod:`~repro.obs.insight` — a reader over any number of sweep stores:
  :func:`~repro.obs.insight.query_runs` lists their records
  (``obs query``) and :func:`~repro.obs.insight.drift` flags a digest
  whose stored metrics differ between stores (``obs drift``).
- :class:`~repro.obs.progress.SweepDashboard` — a live terminal view of
  a running sweep (``sweep --watch`` / ``obs top``) fed by the
  supervisor through the :class:`~repro.obs.progress.ProgressSink`
  protocol, with a plain-line non-TTY fallback for CI.
- :func:`~repro.obs.explain.explain_run` — the energy-savings waterfall
  (``obs explain``): each run's kWh delta vs its no-sleep twin,
  decomposed per device generation into gross sleep savings, standby
  draw, wake/boot penalties and churn-forced wakes.

Guard rail: with observability off there is zero work on the hot path —
no tracer object exists, the kernel keeps only the plain integer event
counters it always kept, and the gateway transition log stays ``None``.
With it on, instrumentation only *reads* simulation state, so traced
results are bit-identical to untraced ones.
"""

from repro.obs.explain import explain_run, render_waterfall
from repro.obs.insight import percentile
from repro.obs.metrics import MetricsRegistry, kernel_snapshot
from repro.obs.progress import ProgressSink, SweepDashboard, notify, render_store_top
from repro.obs.tracer import (
    SimTracer,
    add_gateway_segments,
    chrome_trace_from_events,
    read_jsonl_events,
)

__all__ = [
    "MetricsRegistry",
    "ProgressSink",
    "SimTracer",
    "SweepDashboard",
    "add_gateway_segments",
    "chrome_trace_from_events",
    "explain_run",
    "kernel_snapshot",
    "notify",
    "percentile",
    "read_jsonl_events",
    "render_store_top",
    "render_waterfall",
]

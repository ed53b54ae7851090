"""Process-local metrics: counters, gauges, histograms, mergeable snapshots.

A :class:`MetricsRegistry` is the parent-side accumulation point for
sweep-wide telemetry.  Workers never hold a registry: they ship plain
:meth:`snapshot` dicts back with each task result (snapshots are just
dicts of floats, so they pickle across the pool boundary for free), and
the engine :meth:`merge`\\ s them — counters add, gauges keep the last
write, histograms combine their count/sum/min/max moments.

The kernel itself exposes no registry either.  It keeps the plain
integer event counters it always kept (steps taken, solver invocations,
BH2 rounds, scheduler rate recomputes) as O(changes) increments at its
rare event sites, and :func:`kernel_snapshot` reads them *after* the run
— so metrics cost nothing on the hot path and cannot perturb results.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple


class MetricsRegistry:
    """Counters, gauges and histograms with plain-dict snapshots."""

    def __init__(self) -> None:
        self.counters: Dict[str, float] = {}
        self.gauges: Dict[str, float] = {}
        self.histograms: Dict[str, Dict[str, float]] = {}

    def counter(self, name: str, amount: float = 1.0) -> None:
        """Add ``amount`` to a monotonically accumulating counter."""
        self.counters[name] = self.counters.get(name, 0.0) + float(amount)

    def gauge(self, name: str, value: float) -> None:
        """Set a point-in-time value; merges keep the last write."""
        self.gauges[name] = float(value)

    def observe(self, name: str, value: float) -> None:
        """Record one sample into a histogram (count/sum/min/max)."""
        value = float(value)
        hist = self.histograms.get(name)
        if hist is None:
            self.histograms[name] = {
                "count": 1.0, "sum": value, "min": value, "max": value,
            }
            return
        hist["count"] += 1.0
        hist["sum"] += value
        if value < hist["min"]:
            hist["min"] = value
        if value > hist["max"]:
            hist["max"] = value

    # -- snapshots --------------------------------------------------------

    def snapshot(self) -> Dict[str, dict]:
        """A picklable plain-dict copy of the registry's state."""
        return {
            "counters": dict(self.counters),
            "gauges": dict(self.gauges),
            "histograms": {name: dict(h) for name, h in self.histograms.items()},
        }

    def merge(self, snapshot: Optional[Dict[str, dict]]) -> None:
        """Fold another registry's snapshot into this one."""
        if not snapshot:
            return
        for name, value in snapshot.get("counters", {}).items():
            self.counter(name, value)
        for name, value in snapshot.get("gauges", {}).items():
            self.gauge(name, value)
        for name, hist in snapshot.get("histograms", {}).items():
            mine = self.histograms.get(name)
            if mine is None:
                self.histograms[name] = dict(hist)
                continue
            mine["count"] += hist.get("count", 0.0)
            mine["sum"] += hist.get("sum", 0.0)
            mine["min"] = min(mine["min"], hist.get("min", mine["min"]))
            mine["max"] = max(mine["max"], hist.get("max", mine["max"]))

    @classmethod
    def from_snapshot(cls, snapshot: Optional[Dict[str, dict]]) -> "MetricsRegistry":
        registry = cls()
        registry.merge(snapshot)
        return registry

    # -- presentation -----------------------------------------------------

    def rows(self) -> List[Tuple[str, str, str]]:
        """(kind, name, value) rows in name order, for report tables."""
        rows: List[Tuple[str, str, str]] = []
        for name in sorted(self.counters):
            rows.append(("counter", name, _format(self.counters[name])))
        for name in sorted(self.gauges):
            rows.append(("gauge", name, _format(self.gauges[name])))
        for name in sorted(self.histograms):
            hist = self.histograms[name]
            count = hist["count"]
            mean = hist["sum"] / count if count else 0.0
            rows.append((
                "histogram", name,
                f"n={count:g} mean={mean:.4g} "
                f"min={hist['min']:.4g} max={hist['max']:.4g}",
            ))
        return rows


def _format(value: float) -> str:
    if float(value).is_integer():
        return f"{int(value)}"
    return f"{value:.4g}"


def kernel_snapshot(result, wall_s: Optional[float] = None) -> Dict[str, dict]:
    """One run's kernel counters as a mergeable metrics snapshot.

    Reads a :class:`~repro.simulation.simulator.SimulationResult` after
    the run — every field here is a plain integer the kernel maintained
    at O(changes) cost whether or not anyone asked.  ``getattr`` guards
    keep this tolerant of results recorded before a counter existed.
    """
    registry = MetricsRegistry()
    registry.counter("kernel.runs", 1)
    registry.counter("kernel.steps", getattr(result, "steps_taken", 0))
    registry.counter(
        "kernel.solver_invocations", getattr(result, "solver_invocations", 0)
    )
    registry.counter("kernel.bh2_rounds", getattr(result, "bh2_rounds", 0))
    registry.counter("kernel.bh2_decisions", getattr(result, "bh2_decisions", 0))
    registry.counter(
        "kernel.rate_recomputes", getattr(result, "rate_recomputes", 0)
    )
    registry.counter(
        "kernel.rate_cache_hits", getattr(result, "rate_cache_hits", 0)
    )
    registry.counter("kernel.dropped_flows", getattr(result, "dropped_flows", 0))
    registry.counter(
        "kernel.suppressed_arrivals", getattr(result, "suppressed_arrivals", 0)
    )
    if wall_s is not None and wall_s > 0:
        registry.observe("kernel.run_s", wall_s)
        steps = getattr(result, "steps_taken", 0)
        if steps:
            registry.observe("kernel.steps_per_s", steps / wall_s)
            # Simulated hours delivered per wall-clock second: the unit
            # of the sweep benchmark's headline `sim_hours_per_s`.
            registry.observe(
                "kernel.sim_hours_per_s", result.duration / 3600.0 / wall_s
            )
    return registry.snapshot()

"""Committed, human-reviewable metric baselines.

One baseline file per scenario family lives under ``baselines/`` (plus
one perf file derived from ``BENCH_perf.json``).  A file is a flat map of
*cells* — ``"<scenario>|<scheme>"`` for sweep families, ``"aggregate"`` /
``"per_scheme:<name>"`` for perf — each holding one :class:`MetricEntry`
per metric.

Two entry kinds carry two different claims:

* ``exact`` — the sweep engine guarantees bit-identical aggregates across
  serial, parallel and resumed executions, so every simulation metric is
  an exact-equality claim: *any* deviation means the trajectory changed.
  Whether that gates depends on the metric's direction (an improvement is
  reported as ``improved`` and passes; run ``regress update`` to adopt it
  into the committed baseline).
* ``tolerance`` — wall-clock timings and other machine-dependent
  aggregates carry ``rel_tol`` / ``abs_tol`` bands; only a move beyond
  the band *against* the metric's direction gates.

The files are JSON with sorted keys and stable float round-tripping, so
a ``regress update`` after an intentional metric change produces a
minimal, reviewable diff.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Mapping, Optional, Sequence

#: Bump when the baseline file layout changes incompatibly.
BASELINE_SCHEMA_VERSION = 1

#: Where committed baselines live, relative to the repository root.
DEFAULT_BASELINES_DIR = "baselines"

#: The smoke-scale families the CI gate checks on every PR.
DEFAULT_REGRESS_FAMILIES = ("smoke", "smoke-watt", "correlated-outage")

#: Name of the perf baseline file (``baselines/perf.json``).
PERF_BASELINE_NAME = "perf"

#: Separator between scenario and scheme in a cell key.  Scenario labels
#: are generated from spec fields and never contain it.
CELL_SEP = "|"

#: Metrics where a larger observed value is the good direction.
_HIGHER_BETTER = frozenset({
    "mean_savings_percent",
    "peak_savings_percent",
    "isp_share_of_savings_percent",
    "served_flows",
    "served_demand_gb",
    "speedup",
    "sim_hours_per_second",
})

#: Metrics where a smaller observed value is the good direction.
_LOWER_BETTER = frozenset({
    "mean_online_gateways",
    "peak_online_gateways",
    "mean_online_line_cards",
    "gateway_kwh",
    "dropped_flows",
    "savings_delta_vs_seed",
    "online_gateways_delta_vs_seed",
})

#: Perf metrics that are wall-clock timings (machine-dependent): they get
#: toleranced entries; everything else in ``BENCH_perf.json`` per-scheme
#: blocks (step counts, flows served, savings) is deterministic and exact.
_PERF_TIMING_TOLERANCES = {
    # The gate must hold on CI runners that are slower than the reference
    # container, so the bands are wide: they catch a kernel falling back
    # to seed-kernel speeds, not a noisy scheduler.
    "speedup": 0.60,
    "sim_hours_per_second": 0.60,
}

#: Perf per-scheme keys that are raw seconds — machine-dependent and not
#: meaningful to gate at all; they are omitted from perf baselines.
_PERF_UNBASELINED = frozenset({"seed_kernel_s", "kernel_s"})


def metric_direction(name: str) -> str:
    """``"higher"`` / ``"lower"`` / ``"none"`` — which way is good."""
    if name in _HIGHER_BETTER:
        return "higher"
    if name in _LOWER_BETTER or name.startswith("gen:") and name.endswith("_kwh"):
        return "lower"
    return "none"


def metric_policy(name: str) -> "MetricEntry":
    """The default (valueless) entry policy for a sweep metric.

    Every sweep aggregate is deterministic (bit-identical serial /
    parallel / resumed executions), so the default kind is ``exact``.
    The returned entry carries ``value=0.0``; callers fill the value in.
    """
    return MetricEntry(value=0.0, kind="exact", direction=metric_direction(name))


@dataclass(frozen=True)
class MetricEntry:
    """One baselined metric value plus its comparison semantics."""

    value: float
    #: ``"exact"`` (bit-identity claim) or ``"tolerance"`` (banded).
    kind: str = "exact"
    #: Relative tolerance (fraction of ``|value|``); tolerance kind only.
    rel_tol: float = 0.0
    #: Absolute tolerance; tolerance kind only.
    abs_tol: float = 0.0
    #: ``"higher"`` / ``"lower"`` / ``"none"`` — the good direction.
    direction: str = "none"

    def __post_init__(self) -> None:
        if self.kind not in ("exact", "tolerance"):
            raise ValueError(f"unknown baseline entry kind {self.kind!r}")
        if self.direction not in ("higher", "lower", "none"):
            raise ValueError(f"unknown baseline direction {self.direction!r}")
        if self.rel_tol < 0 or self.abs_tol < 0:
            raise ValueError("tolerances must be non-negative")

    def band(self) -> float:
        """The absolute half-width of the acceptance band."""
        if self.kind == "exact":
            return 0.0
        return max(self.abs_tol, self.rel_tol * abs(self.value))

    def to_payload(self) -> Dict[str, object]:
        payload: Dict[str, object] = {"value": self.value, "kind": self.kind}
        if self.kind == "tolerance":
            if self.rel_tol:
                payload["rel_tol"] = self.rel_tol
            if self.abs_tol:
                payload["abs_tol"] = self.abs_tol
        if self.direction != "none":
            payload["direction"] = self.direction
        return payload

    @classmethod
    def from_payload(cls, payload: Mapping[str, object]) -> "MetricEntry":
        return cls(
            value=float(payload["value"]),
            kind=str(payload.get("kind", "exact")),
            rel_tol=float(payload.get("rel_tol", 0.0)),
            abs_tol=float(payload.get("abs_tol", 0.0)),
            direction=str(payload.get("direction", "none")),
        )


@dataclass
class Baseline:
    """One committed baseline file: named cells of metric entries."""

    name: str
    #: ``"sweep-family"`` or ``"perf"``.
    kind: str = "sweep-family"
    #: Provenance of the values (sweep config, bench scenario, …) — shown
    #: to reviewers and compared on ``check`` so a baseline recorded at
    #: one sweep configuration is never silently diffed against another.
    config: Dict[str, object] = field(default_factory=dict)
    #: ``cell key -> metric name -> entry``.
    cells: Dict[str, Dict[str, MetricEntry]] = field(default_factory=dict)
    schema_version: int = BASELINE_SCHEMA_VERSION

    def to_json(self) -> str:
        payload = {
            "schema_version": self.schema_version,
            "kind": self.kind,
            "name": self.name,
            "config": self.config,
            "cells": {
                cell: {
                    metric: entry.to_payload()
                    for metric, entry in sorted(metrics.items())
                }
                for cell, metrics in sorted(self.cells.items())
            },
        }
        return json.dumps(payload, indent=1, sort_keys=True) + "\n"

    @classmethod
    def from_json(cls, text: str) -> "Baseline":
        payload = json.loads(text)
        version = int(payload.get("schema_version", -1))
        if version != BASELINE_SCHEMA_VERSION:
            raise ValueError(
                f"baseline schema version {version} is not the supported "
                f"{BASELINE_SCHEMA_VERSION}; re-run 'repro-access regress update'"
            )
        return cls(
            name=str(payload["name"]),
            kind=str(payload.get("kind", "sweep-family")),
            config=dict(payload.get("config", {})),
            cells={
                str(cell): {
                    str(metric): MetricEntry.from_payload(entry)
                    for metric, entry in metrics.items()
                }
                for cell, metrics in payload.get("cells", {}).items()
            },
            schema_version=version,
        )


def baseline_path(baselines_dir: os.PathLike | str, name: str) -> Path:
    """Where the baseline file for a family (or ``perf``) lives."""
    return Path(baselines_dir) / f"{name}.json"


def load_baseline(baselines_dir: os.PathLike | str, name: str) -> Optional[Baseline]:
    """The committed baseline for a name, or None when no file exists."""
    path = baseline_path(baselines_dir, name)
    try:
        text = path.read_text()
    except OSError:
        return None
    return Baseline.from_json(text)


def save_baseline(baselines_dir: os.PathLike | str, baseline: Baseline) -> Path:
    """Write a baseline file (creating the directory if needed)."""
    path = baseline_path(baselines_dir, baseline.name)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(baseline.to_json())
    return path


# ----------------------------------------------------------------------
# Builders
# ----------------------------------------------------------------------
def cell_key(scenario: str, scheme: str) -> str:
    """The baseline cell key of one (scenario, scheme) aggregate."""
    return f"{scenario}{CELL_SEP}{scheme}"


def cells_from_aggregates(
    rows: Sequence[Mapping[str, object]],
) -> Dict[str, Dict[str, float]]:
    """Observed ``cell -> metric -> value`` cells from sweep aggregates.

    Non-metric bookkeeping columns (family/scenario/scheme/runs) are
    dropped; everything numeric left is a metric.
    """
    cells: Dict[str, Dict[str, float]] = {}
    for row in rows:
        key = cell_key(str(row["scenario"]), str(row["scheme"]))
        cells[key] = {
            name: float(value)
            for name, value in row.items()
            if name not in ("family", "scenario", "scheme", "runs")
            and isinstance(value, (int, float))
        }
    return cells


def baseline_from_aggregates(
    family: str,
    rows: Sequence[Mapping[str, object]],
    config: Optional[Mapping[str, object]] = None,
) -> Baseline:
    """A sweep-family baseline from one family's aggregate rows."""
    cells: Dict[str, Dict[str, MetricEntry]] = {}
    for key, metrics in cells_from_aggregates(rows).items():
        cells[key] = {
            name: MetricEntry(
                value=value, kind="exact", direction=metric_direction(name)
            )
            for name, value in metrics.items()
        }
    return Baseline(
        name=family,
        kind="sweep-family",
        config=dict(config or {}),
        cells=cells,
    )


def perf_cells_from_bench(
    payload: Mapping[str, object],
) -> Dict[str, Dict[str, float]]:
    """Observed perf cells from a ``BENCH_perf.json`` payload.

    Only the ``aggregate`` and ``per_scheme`` blocks become cells, and
    only their numeric values: the ``benchmark`` and ``environment``
    blocks are provenance (python version, platform, cpu count, git
    sha), which the gate must ignore — baselines travel between
    machines.
    """
    cells: Dict[str, Dict[str, float]] = {}
    aggregate = payload.get("aggregate", {})
    cells["aggregate"] = {
        name: float(value)
        for name, value in aggregate.items()
        if name not in _PERF_UNBASELINED and isinstance(value, (int, float))
    }
    for scheme, block in payload.get("per_scheme", {}).items():
        cells[f"per_scheme:{scheme}"] = {
            name: float(value)
            for name, value in block.items()
            if name not in _PERF_UNBASELINED and isinstance(value, (int, float))
        }
    return cells


def _perf_entry(name: str, value: float) -> MetricEntry:
    direction = metric_direction(name)
    rel_tol = _PERF_TIMING_TOLERANCES.get(name)
    if rel_tol is not None:
        return MetricEntry(
            value=value, kind="tolerance", rel_tol=rel_tol, direction=direction
        )
    if name in ("savings_delta_vs_seed", "online_gateways_delta_vs_seed"):
        # The bench itself asserts < 1e-6; the baseline restates the bound.
        return MetricEntry(
            value=0.0, kind="tolerance", abs_tol=1e-6, direction=direction
        )
    # Step counts, flows served and simulation metrics are deterministic.
    return MetricEntry(value=value, kind="exact", direction=direction)


def perf_baseline_from_bench(payload: Mapping[str, object]) -> Baseline:
    """The perf baseline derived from a ``BENCH_perf.json`` payload.

    Wall-clock speedups become toleranced lower bounds (wide bands — CI
    runners are slower and noisier than the reference container); step
    counts, flows served and the scheme metrics stay exact, restating the
    kernel's bit-identity claim as committed values.
    """
    cells = {
        cell: {name: _perf_entry(name, value) for name, value in metrics.items()}
        for cell, metrics in perf_cells_from_bench(payload).items()
    }
    return Baseline(
        name=PERF_BASELINE_NAME,
        kind="perf",
        config={
            "benchmark": payload.get("benchmark", {}),
            "source": "BENCH_perf.json",
        },
        cells=cells,
    )


def list_baseline_names(baselines_dir: os.PathLike | str) -> List[str]:
    """Names of every baseline file in a directory (sorted)."""
    directory = Path(baselines_dir)
    if not directory.is_dir():
        return []
    return sorted(path.stem for path in directory.glob("*.json"))

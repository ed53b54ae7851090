"""Committed, human-reviewable metric baselines.

One baseline file per scenario family lives under ``baselines/``.  A
file is a flat map of *cells* — ``"<scenario>|<scheme>"`` — each holding
one :class:`MetricEntry` per metric.

Every entry is an exact-equality claim: the sweep engine guarantees
bit-identical aggregates across serial, parallel and resumed executions,
so *any* deviation means the trajectory changed.  Whether that gates
depends on the metric's direction (an improvement is reported as
``improved`` and passes; run ``regress update`` to adopt it into the
committed baseline).  Wall-clock timing is not baselined here: the sweep
benchmark under ``perfbench/`` measures it.

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
})

#: Metrics where a smaller observed value is the good direction.
_LOWER_BETTER = frozenset({
    "mean_online_gateways",
    "peak_online_gateways",
    "mean_online_line_cards",
    "gateway_kwh",
    "dropped_flows",
})


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
    parallel / resumed executions), so every entry is exact.  The
    returned entry carries ``value=0.0``; callers fill the value in.
    """
    return MetricEntry(value=0.0, direction=metric_direction(name))


#: The on-disk ``kind`` of every metric entry: an exact-equality claim.
_ENTRY_KIND = "exact"

#: The on-disk ``kind`` of every baseline file.
_BASELINE_KIND = "sweep-family"


def _check_kind(payload: Mapping[str, object], expected: str, what: str) -> None:
    kind = payload.get("kind", expected)
    if kind != expected:
        raise ValueError(f"unknown {what} kind {kind!r} (only {expected!r} is supported)")


@dataclass(frozen=True)
class MetricEntry:
    """One baselined metric value (an exact claim) plus its good direction."""

    value: float
    #: ``"higher"`` / ``"lower"`` / ``"none"`` — the good direction.
    direction: str = "none"

    def __post_init__(self) -> None:
        if self.direction not in ("higher", "lower", "none"):
            raise ValueError(f"unknown baseline direction {self.direction!r}")

    def to_payload(self) -> Dict[str, object]:
        payload: Dict[str, object] = {"value": self.value, "kind": _ENTRY_KIND}
        if self.direction != "none":
            payload["direction"] = self.direction
        return payload

    @classmethod
    def from_payload(cls, payload: Mapping[str, object]) -> "MetricEntry":
        _check_kind(payload, _ENTRY_KIND, "baseline entry")
        return cls(
            value=float(payload["value"]),
            direction=str(payload.get("direction", "none")),
        )


@dataclass
class Baseline:
    """One committed baseline file: named cells of metric entries."""

    name: str
    #: Provenance of the values (the sweep config), compared on ``check``
    #: so a baseline recorded at one sweep configuration is never
    #: silently diffed against another.
    config: Dict[str, object] = field(default_factory=dict)
    #: ``cell key -> metric name -> entry``.
    cells: Dict[str, Dict[str, MetricEntry]] = field(default_factory=dict)
    schema_version: int = BASELINE_SCHEMA_VERSION

    def to_json(self) -> str:
        payload = {
            "schema_version": self.schema_version,
            "kind": _BASELINE_KIND,
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
        _check_kind(payload, _BASELINE_KIND, "baseline")
        return cls(
            name=str(payload["name"]),
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
    """Where the baseline file for a family lives."""
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
            name: MetricEntry(value=value, direction=metric_direction(name))
            for name, value in metrics.items()
        }
    return Baseline(
        name=family,
        config=dict(config or {}),
        cells=cells,
    )


def list_baseline_names(baselines_dir: os.PathLike | str) -> List[str]:
    """Names of every baseline file in a directory (sorted)."""
    directory = Path(baselines_dir)
    if not directory.is_dir():
        return []
    return sorted(path.stem for path in directory.glob("*.json"))

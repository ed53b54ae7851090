"""Committed baselines, Pareto fronts and the CI regression gate.

The paper's deliverable is quantitative — aggregation schemes save ~70%
of gateway energy while keeping user demand served — and after the fast
kernel (PR 1), the sweep catalog (PR 2), fleet dynamics (PR 3) and the
watt-aware schemes (PR 4) the repo produces dozens of scheme × scenario
metric series.  This package *defends* them:

* :mod:`repro.regress.baseline` — a committed, human-reviewable baseline
  format (``baselines/<family>.json``, one file per scenario family):
  exact-valued entries for the metrics the engine guarantees
  bit-identical.  Timing is not gated here; the sweep benchmark under
  ``perfbench/`` measures it.
* :mod:`repro.regress.compare` — the comparison engine: diff a fresh
  sweep against baselines and classify every (cell, metric) as
  ``identical`` / ``regressed`` / ``improved`` / ``new`` / ``missing``,
  with a machine-readable report and a non-zero exit on regression.
* :mod:`repro.regress.pareto` — cross-family Pareto fronts
  (``mean_savings_percent`` vs. peak online gateways, and the watt
  frontier ``gateway_kwh`` vs. served demand from
  :mod:`repro.wattopt.front`); front membership is recorded in the
  baselines so a scheme *falling off the front* is itself a detectable
  regression.

Entry point: ``repro-access regress check|update|pareto``; the CI gate
job runs ``check`` on every PR against the committed smoke-scale
baselines.
"""

from repro.regress.baseline import (
    BASELINE_SCHEMA_VERSION,
    DEFAULT_BASELINES_DIR,
    DEFAULT_REGRESS_FAMILIES,
    Baseline,
    MetricEntry,
    baseline_from_aggregates,
    baseline_path,
    cells_from_aggregates,
    load_baseline,
    metric_policy,
    save_baseline,
)
from repro.regress.compare import (
    GATING_STATUSES,
    Diff,
    RegressReport,
    classify,
    compare_cells,
    compare_config,
)
from repro.regress.pareto import (
    FRONT_SPECS,
    SAVINGS_FRONT,
    FrontSpec,
    compare_fronts,
    front_points,
    fronts_payload,
    pareto_front,
)

__all__ = [
    "BASELINE_SCHEMA_VERSION",
    "DEFAULT_BASELINES_DIR",
    "DEFAULT_REGRESS_FAMILIES",
    "Baseline",
    "MetricEntry",
    "baseline_from_aggregates",
    "baseline_path",
    "cells_from_aggregates",
    "load_baseline",
    "metric_policy",
    "save_baseline",
    "GATING_STATUSES",
    "Diff",
    "RegressReport",
    "classify",
    "compare_cells",
    "compare_config",
    "FRONT_SPECS",
    "SAVINGS_FRONT",
    "FrontSpec",
    "compare_fronts",
    "front_points",
    "fronts_payload",
    "pareto_front",
]

"""Watt-aware aggregation: energy — not gateway count — as the objective.

The paper's *Optimal* scheme (Eq. 1) and BH2 both minimise the number of
online gateways, a proxy that is exact only while every gateway draws the
same power.  Over the heterogeneous fleets of :mod:`repro.fleet` the proxy
breaks: keeping a legacy 9 W box online costs nearly twice the watts of an
efficient 5 W one.  This package makes the watts themselves the objective:

* :mod:`repro.wattopt.cost` — :class:`WattCostModel`, mapping every
  gateway to its generation's marginal online draw (active minus standby
  plus the per-line ISP modem), with the homogeneous 9 W fleet recovering
  the count objective exactly as a special case;
* :mod:`repro.wattopt.solver` — a watt-greedy set-multicover solver and an
  exact watt-ordered enumeration solver, both reusing the feasibility and
  assignment machinery of :mod:`repro.core.optimal`.

Scheme wiring (``optimal-watts``, ``bh2-watts``, …) lives in
:mod:`repro.core.schemes`; the ``watt-aware`` sweep family and the
``watts_saved_vs_count_kwh`` report column in :mod:`repro.sweep`; the
``repro-access wattopt`` subcommand in :mod:`repro.cli`; the watt
(gateway kWh vs. served demand) Pareto front, ``WATT_FRONT``, in
:mod:`repro.regress.pareto`.
"""

from repro.wattopt.cost import WattCostModel
from repro.wattopt.solver import (
    ExactWattAggregationSolver,
    WattGreedyAggregationSolver,
)

__all__ = [
    "ExactWattAggregationSolver",
    "WattCostModel",
    "WattGreedyAggregationSolver",
]

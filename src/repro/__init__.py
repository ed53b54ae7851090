"""repro — a reproduction of "Insomnia in the Access" (SIGCOMM 2011).

The package implements the paper's two mechanisms — Broadband Hitch-Hiking
(BH2) aggregation of user traffic onto a minimal set of wireless gateways,
and k-switch batching of active DSL lines onto a minimal set of DSLAM line
cards — together with every substrate the evaluation needs: a trace-
driven simulation kernel, synthetic traffic traces, wireless overlap
topologies, gateway/DSLAM device models with Sleep-on-Idle, power and
energy accounting, a flow-level transfer model, a DSL crosstalk model and a
testbed replay harness.

Quickstart::

    from repro import build_default_scenario, bh2_kswitch, run_scheme

    scenario = build_default_scenario(num_clients=68, num_gateways=10,
                                      duration=4 * 3600.0)
    result = run_scheme(scenario, bh2_kswitch())
    print(f"energy saved vs. no-sleep: {100 * result.mean_savings():.1f}%")
"""

from repro.core.bh2 import BH2Config, BH2Terminal
from repro.core.optimal import AggregationProblem, GreedyAggregationSolver
from repro.core.schemes import (
    SchemeConfig,
    bh2_full_switch,
    bh2_kswitch,
    bh2_no_backup_kswitch,
    bh2_watts,
    no_sleep,
    optimal,
    optimal_watts,
    soi,
    soi_full_switch,
    soi_kswitch,
    standard_schemes,
    watt_schemes,
)
from repro.power.models import AccessNetworkPowerModel, DEFAULT_POWER_MODEL
from repro.simulation.runner import ExperimentRunner, SchemeComparison, run_scheme
from repro.simulation.simulator import AccessNetworkSimulator, SimulationResult
from repro.sweep import ResultStore, ScenarioFamily, ScenarioSpec, run_sweep
from repro.topology.scenario import DslamConfig, Scenario, build_default_scenario
from repro.traces.synthetic import SyntheticTraceConfig, generate_crawdad_like_trace

__version__ = "1.0.0"

__all__ = [
    "__version__",
    "BH2Config",
    "BH2Terminal",
    "AggregationProblem",
    "GreedyAggregationSolver",
    "SchemeConfig",
    "no_sleep",
    "soi",
    "soi_kswitch",
    "soi_full_switch",
    "bh2_kswitch",
    "bh2_no_backup_kswitch",
    "bh2_full_switch",
    "bh2_watts",
    "optimal",
    "optimal_watts",
    "standard_schemes",
    "watt_schemes",
    "AccessNetworkPowerModel",
    "DEFAULT_POWER_MODEL",
    "AccessNetworkSimulator",
    "SimulationResult",
    "ExperimentRunner",
    "SchemeComparison",
    "run_scheme",
    "Scenario",
    "DslamConfig",
    "build_default_scenario",
    "ScenarioFamily",
    "ScenarioSpec",
    "ResultStore",
    "run_sweep",
    "SyntheticTraceConfig",
    "generate_crawdad_like_trace",
]

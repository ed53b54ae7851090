"""Trace-driven access-network simulation (Sec. 5 of the paper).

:class:`~repro.simulation.simulator.AccessNetworkSimulator` replays a
wireless trace over a residential scenario under one of the evaluated
schemes and records energy, device states and per-flow QoS.
:mod:`repro.simulation.runner` orchestrates multi-run, multi-scheme
comparisons, and :mod:`repro.simulation.metrics` post-processes results
into the quantities plotted in the paper's figures.
"""

from repro.simulation.simulator import AccessNetworkSimulator, SimulationResult
from repro.simulation.runner import (
    ExperimentRunner,
    SchemeComparison,
    run_scheme,
    scheme_run_seed,
)
from repro.simulation.metrics import (
    average_timeseries,
    cdf,
    completion_time_variation_cdf,
    online_time_variation_cdf,
)

__all__ = [
    "AccessNetworkSimulator",
    "SimulationResult",
    "ExperimentRunner",
    "SchemeComparison",
    "run_scheme",
    "scheme_run_seed",
    "cdf",
    "average_timeseries",
    "completion_time_variation_cdf",
    "online_time_variation_cdf",
]

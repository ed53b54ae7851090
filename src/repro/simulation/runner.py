"""Experiment orchestration: multi-run, multi-scheme comparisons.

The paper runs every scheme 10 times over the same trace and averages the
results; the randomness lies in the BH2 decision offsets and random gateway
selections.  :class:`ExperimentRunner` reproduces that protocol and runs
each distinct trajectory once: the compared schemes of one
:attr:`~repro.core.schemes.SchemeConfig.trajectory_key` (a seed-free
scheme and its switch variants) share one kernel pass, and each one's
result fills all of its repetitions, so every run-averaged aggregate is
the one separate runs would give, bit for bit.  The
comparison also carries the no-sleep flow durations Fig. 9a compares
against.  Parallel comparisons run as ``sweep --workers N``
(:mod:`repro.sweep.engine`), which is supervised, cached and resumable.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Union

import numpy as np

from repro.core.schemes import SchemeConfig, no_sleep
from repro.power.models import AccessNetworkPowerModel, DEFAULT_POWER_MODEL
from repro.simulation.metrics import average_timeseries
from repro.simulation.simulator import AccessNetworkSimulator, SimulationResult
from repro.topology.scenario import Scenario


def scheme_run_seed(base_seed: int, run_index: int, scheme_name: str) -> int:
    """Deterministic per-run seed for a scheme repetition.

    Uses ``zlib.crc32`` rather than ``hash`` so the seed does not depend on
    ``PYTHONHASHSEED`` — identical runs stay identical across interpreter
    invocations and worker processes.
    """
    return base_seed + 1000 * run_index + zlib.crc32(scheme_name.encode("utf-8")) % 997


def run_scheme(
    scenario: Scenario,
    scheme: SchemeConfig,
    seed: int = 0,
    step_s: float = 1.0,
    sample_interval_s: float = 60.0,
    until: Optional[float] = None,
    power_model: AccessNetworkPowerModel = DEFAULT_POWER_MODEL,
    tracer=None,
    variants: Optional[Sequence[SchemeConfig]] = None,
) -> Union[SimulationResult, List[SimulationResult]]:
    """Run one scheme once over a scenario: one kernel pass.

    ``variants`` are schemes with ``scheme``'s
    :attr:`~repro.core.schemes.SchemeConfig.trajectory_key`, its switch
    variants.  Given a list (even an empty one), the pass serves them all
    and returns a list of results, ``scheme``'s first, each equal bit for
    bit to a separate run of its scheme.

    ``tracer`` optionally attaches a :class:`~repro.obs.tracer.SimTracer`;
    traced runs produce bit-identical results (tracing only observes).
    """
    simulator = AccessNetworkSimulator(
        scenario=scenario,
        scheme=scheme,
        power_model=power_model,
        step_s=step_s,
        sample_interval_s=sample_interval_s,
        seed=seed,
        tracer=tracer,
        variants=variants or (),
    )
    if variants is None:
        return simulator.run(until=until)
    return simulator.run_all(until=until)


@dataclass
class SchemeComparison:
    """Results of all runs of all schemes over one scenario."""

    scenario: Scenario
    runs_per_scheme: int
    results: Dict[str, List[SimulationResult]] = field(default_factory=dict)
    #: No-sleep completion time of every finished flow, keyed by flow id:
    #: the baseline of Fig. 9a.  Empty when no compared scheme sleeps.
    baseline_durations: Dict[int, float] = field(default_factory=dict)

    def first(self, scheme_name: str) -> SimulationResult:
        """The first run of a scheme (convenient for per-flow metrics)."""
        return self.results[scheme_name][0]

    def mean_savings(self, scheme_name: str, t_start: float = 0.0, t_end: Optional[float] = None) -> float:
        """Average savings fraction across the runs of a scheme."""
        return float(np.mean([r.mean_savings(t_start, t_end) for r in self.results[scheme_name]]))

    def mean_online_gateways(
        self, scheme_name: str, t_start: float = 0.0, t_end: Optional[float] = None
    ) -> float:
        """Average number of powered gateways across the runs of a scheme."""
        return float(
            np.mean([r.mean_online_gateways(t_start, t_end) for r in self.results[scheme_name]])
        )

    def mean_online_line_cards(
        self, scheme_name: str, t_start: float = 0.0, t_end: Optional[float] = None
    ) -> float:
        """Average number of powered line cards across the runs of a scheme."""
        return float(
            np.mean([r.mean_online_line_cards(t_start, t_end) for r in self.results[scheme_name]])
        )

    def savings_timeseries(self, scheme_name: str):
        """Run-averaged savings-vs-time series of a scheme (Fig. 6)."""
        return average_timeseries(r.savings_timeseries() for r in self.results[scheme_name])

    def online_gateways_timeseries(self, scheme_name: str):
        """Run-averaged online-gateway series of a scheme (Fig. 7)."""
        return average_timeseries(
            (r.sample_times, r.online_gateways) for r in self.results[scheme_name]
        )

    def isp_share_timeseries(self, scheme_name: str):
        """Run-averaged ISP share of savings series of a scheme (Fig. 8)."""
        return average_timeseries(
            r.isp_share_of_savings_timeseries() for r in self.results[scheme_name]
        )

    @property
    def scheme_names(self) -> List[str]:
        """Names of the schemes included in the comparison."""
        return list(self.results)


class ExperimentRunner:
    """Runs a set of schemes over a scenario, repeating each several times."""

    def __init__(
        self,
        scenario: Scenario,
        runs_per_scheme: int = 1,
        step_s: float = 1.0,
        sample_interval_s: float = 60.0,
        base_seed: int = 0,
    ):
        if runs_per_scheme <= 0:
            raise ValueError("runs_per_scheme must be positive")
        self.scenario = scenario
        self.runs_per_scheme = runs_per_scheme
        self.step_s = step_s
        self.sample_interval_s = sample_interval_s
        self.base_seed = base_seed

    def _run(
        self, scheme: SchemeConfig, run_index: int, variants: Sequence[SchemeConfig] = ()
    ) -> List[SimulationResult]:
        """One kernel pass: ``scheme``'s result, then each variant's."""
        return run_scheme(
            self.scenario,
            scheme,
            seed=scheme_run_seed(self.base_seed, run_index, scheme.name),
            step_s=self.step_s,
            sample_interval_s=self.sample_interval_s,
            variants=variants,
        )

    def run(self, schemes: Sequence[SchemeConfig]) -> SchemeComparison:
        """Run every scheme ``runs_per_scheme`` times, each distinct trajectory once.

        The compared schemes of one trajectory key share one kernel pass,
        and each one's result fills all of its repetitions.  The Fig. 9a
        baseline comes from the compared no-sleep run, or from one extra
        no-sleep run when no-sleep is not compared.
        """
        results: Dict[str, List[SimulationResult]] = {}
        groups: Dict[tuple, List[SchemeConfig]] = {}
        for scheme in schemes:
            key = scheme.trajectory_key
            if key is None:
                results[scheme.name] = [
                    self._run(scheme, index)[0] for index in range(self.runs_per_scheme)
                ]
            else:
                groups.setdefault(key, []).append(scheme)
        for first, *variants in groups.values():
            for scheme, result in zip((first, *variants), self._run(first, 0, variants)):
                results[scheme.name] = [result] * self.runs_per_scheme
        comparison = SchemeComparison(
            scenario=self.scenario,
            runs_per_scheme=self.runs_per_scheme,
            results={scheme.name: results[scheme.name] for scheme in schemes},
        )
        if any(scheme.sleep_enabled for scheme in schemes):
            baseline_scheme = no_sleep()
            if baseline_scheme in schemes:
                baseline = comparison.results[baseline_scheme.name][0]
            else:
                baseline = self._run(baseline_scheme, 0)[0]
            comparison.baseline_durations = baseline.flow_durations()
        return comparison

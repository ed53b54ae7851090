"""Experiment orchestration: multi-run, multi-scheme comparisons.

The paper runs every scheme 10 times over the same trace and averages the
results; the randomness lies in the BH2 decision offsets and random gateway
selections.  :class:`ExperimentRunner` reproduces that protocol and also
takes care of the bookkeeping the comparisons need (the no-sleep baseline
flow durations for Fig. 9a, the SoI reference for Fig. 9b).

:class:`ParallelExperimentRunner` fans the scheme × repetition grid out
over a :mod:`multiprocessing` pool.  Because every run's seed is derived
deterministically from ``(base_seed, run_index, scheme name)`` the parallel
runner produces results identical to the serial one, just faster.
"""

from __future__ import annotations

import multiprocessing
import os
import zlib
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

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
    baseline_durations: Optional[Dict[int, float]] = None,
    tracer=None,
) -> SimulationResult:
    """Run one scheme once over a scenario.

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
        baseline_durations=baseline_durations,
        tracer=tracer,
    )
    return simulator.run(until=until)


@dataclass
class SchemeComparison:
    """Results of all runs of all schemes over one scenario."""

    scenario: Scenario
    runs_per_scheme: int
    results: Dict[str, List[SimulationResult]] = field(default_factory=dict)

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
        until: Optional[float] = None,
        power_model: AccessNetworkPowerModel = DEFAULT_POWER_MODEL,
        base_seed: int = 0,
    ):
        if runs_per_scheme <= 0:
            raise ValueError("runs_per_scheme must be positive")
        self.scenario = scenario
        self.runs_per_scheme = runs_per_scheme
        self.step_s = step_s
        self.sample_interval_s = sample_interval_s
        self.until = until
        self.power_model = power_model
        self.base_seed = base_seed
        self._baseline_durations: Optional[Dict[int, float]] = None

    # ------------------------------------------------------------------
    def baseline_durations(self) -> Dict[int, float]:
        """Flow durations under no-sleep, computed once and cached."""
        if self._baseline_durations is None:
            result = run_scheme(
                self.scenario,
                no_sleep(),
                seed=self.base_seed,
                step_s=self.step_s,
                sample_interval_s=self.sample_interval_s,
                until=self.until,
                power_model=self.power_model,
            )
            self._baseline_durations = result.flow_durations()
        return self._baseline_durations

    def run(self, schemes: Sequence[SchemeConfig]) -> SchemeComparison:
        """Run every scheme ``runs_per_scheme`` times."""
        comparison = SchemeComparison(scenario=self.scenario, runs_per_scheme=self.runs_per_scheme)
        needs_baseline = any(s.sleep_enabled for s in schemes)
        baseline = self.baseline_durations() if needs_baseline else {}
        for scheme in schemes:
            runs = []
            for run_index in range(self.runs_per_scheme):
                runs.append(
                    run_scheme(
                        self.scenario,
                        scheme,
                        seed=scheme_run_seed(self.base_seed, run_index, scheme.name),
                        step_s=self.step_s,
                        sample_interval_s=self.sample_interval_s,
                        until=self.until,
                        power_model=self.power_model,
                        baseline_durations=baseline,
                    )
                )
            comparison.results[scheme.name] = runs
        return comparison


#: Per-worker context installed by the pool initializer, so the (large)
#: scenario and baseline-durations map cross the process boundary once per
#: worker rather than once per task.
_WORKER_CONTEXT: dict = {}


def _parallel_worker_init(
    scenario: Scenario,
    step_s: float,
    sample_interval_s: float,
    until: Optional[float],
    power_model: AccessNetworkPowerModel,
    baseline: Dict[int, float],
) -> None:
    _WORKER_CONTEXT["scenario"] = scenario
    _WORKER_CONTEXT["step_s"] = step_s
    _WORKER_CONTEXT["sample_interval_s"] = sample_interval_s
    _WORKER_CONTEXT["until"] = until
    _WORKER_CONTEXT["power_model"] = power_model
    _WORKER_CONTEXT["baseline"] = baseline


def _parallel_run_task(args: Tuple[SchemeConfig, int]) -> SimulationResult:
    """Top-level worker body (must be picklable for multiprocessing)."""
    scheme, seed = args
    context = _WORKER_CONTEXT
    return run_scheme(
        context["scenario"],
        scheme,
        seed=seed,
        step_s=context["step_s"],
        sample_interval_s=context["sample_interval_s"],
        until=context["until"],
        power_model=context["power_model"],
        baseline_durations=context["baseline"],
    )


class ParallelExperimentRunner(ExperimentRunner):
    """Experiment runner that fans scheme × repetition runs over processes.

    Seeds are derived per task with :func:`scheme_run_seed`, so the results
    (and therefore every :class:`SchemeComparison` aggregate) are
    bit-identical to the serial :class:`ExperimentRunner` for the same
    ``base_seed`` — only the wall-clock differs.
    """

    def __init__(
        self,
        scenario: Scenario,
        runs_per_scheme: int = 1,
        step_s: float = 1.0,
        sample_interval_s: float = 60.0,
        until: Optional[float] = None,
        power_model: AccessNetworkPowerModel = DEFAULT_POWER_MODEL,
        base_seed: int = 0,
        workers: Optional[int] = None,
    ):
        super().__init__(
            scenario=scenario,
            runs_per_scheme=runs_per_scheme,
            step_s=step_s,
            sample_interval_s=sample_interval_s,
            until=until,
            power_model=power_model,
            base_seed=base_seed,
        )
        if workers is not None and workers <= 0:
            raise ValueError("workers must be positive")
        self.workers = workers

    def run(self, schemes: Sequence[SchemeConfig]) -> SchemeComparison:
        """Run every scheme ``runs_per_scheme`` times across worker processes."""
        schemes = list(schemes)
        comparison = SchemeComparison(scenario=self.scenario, runs_per_scheme=self.runs_per_scheme)
        needs_baseline = any(s.sleep_enabled for s in schemes)
        baseline = self.baseline_durations() if needs_baseline else {}
        tasks = [
            (scheme, scheme_run_seed(self.base_seed, run_index, scheme.name))
            for scheme in schemes
            for run_index in range(self.runs_per_scheme)
        ]
        init_args = (
            self.scenario,
            self.step_s,
            self.sample_interval_s,
            self.until,
            self.power_model,
            baseline,
        )
        workers = self.workers or os.cpu_count() or 1
        workers = max(1, min(workers, len(tasks)))
        if workers == 1:
            _parallel_worker_init(*init_args)
            results = [_parallel_run_task(task) for task in tasks]
        else:
            with multiprocessing.Pool(
                processes=workers,
                initializer=_parallel_worker_init,
                initargs=init_args,
            ) as pool:
                results = pool.map(_parallel_run_task, tasks)
        cursor = 0
        for scheme in schemes:
            comparison.results[scheme.name] = results[cursor : cursor + self.runs_per_scheme]
            cursor += self.runs_per_scheme
        return comparison

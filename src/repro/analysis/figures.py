"""Data series behind every figure and table of the paper's evaluation.

The heavyweight figures (6-9) all derive from the same scheme comparison,
so :func:`run_evaluation` produces a :class:`SchemeComparison` once and the
``figure*`` functions post-process it.  The default parameters are scaled
down (shorter traces, fewer runs) so the whole set completes in minutes on
a laptop; pass ``full_scale()`` parameters to reproduce the paper-scale
setup.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.access.kswitch import (
    card_sleep_probability_exact,
    card_sleep_probability_paper,
    simulate_card_sleep_probability,
)
from repro.core.schemes import (
    SchemeConfig,
    bh2_kswitch,
    standard_schemes,
)
from repro.crosstalk.attenuation import AttenuationSynthesizer
from repro.crosstalk.experiments import run_figure14_experiment
from repro.power.models import world_wide_savings_twh
from repro.simulation.metrics import (
    completion_time_variation_cdf,
    fraction_of_flows_affected,
    online_time_variation_cdf,
)
from repro.simulation.runner import ExperimentRunner, SchemeComparison, run_scheme
from repro.topology.scenario import Scenario, build_default_scenario
from repro.traces.adsl import AdslPopulationConfig, AdslUtilizationModel
from repro.traces.analysis import peak_hour_gap_histogram, utilization_timeseries
from repro.traces.models import WirelessTrace
from repro.traces.synthetic import generate_crawdad_like_trace
from repro.testbed.deployment import TestbedConfig
from repro.testbed.replay import TestbedReplay

#: Peak window (11:00-19:00) used by the paper's peak-hour statistics.
PEAK_WINDOW = (11 * 3600.0, 19 * 3600.0)


@dataclass(frozen=True)
class EvaluationScale:
    """Knobs that trade fidelity for runtime in the simulation figures."""

    num_clients: int = 272
    num_gateways: int = 40
    duration_s: float = 24 * 3600.0
    runs_per_scheme: int = 1
    step_s: float = 1.0
    sample_interval_s: float = 60.0
    seed: int = 2011


def quick_scale() -> EvaluationScale:
    """A reduced setup (quarter-size population, 4 hours) for smoke runs."""
    return EvaluationScale(
        num_clients=68, num_gateways=10, duration_s=4 * 3600.0, step_s=2.0, seed=7
    )


def full_scale() -> EvaluationScale:
    """The paper's setup: 272 clients, 40 gateways, 24 hours, 10 runs."""
    return EvaluationScale(runs_per_scheme=10)


def build_scenario(scale: EvaluationScale, density: Optional[float] = None) -> Scenario:
    """The evaluation scenario for a given scale (and optional density override)."""
    return build_default_scenario(
        seed=scale.seed,
        num_clients=scale.num_clients,
        num_gateways=scale.num_gateways,
        duration=scale.duration_s,
        density_override=density,
    )


# ----------------------------------------------------------------------
# Section 2: measurement figures
# ----------------------------------------------------------------------
def figure2(config: Optional[AdslPopulationConfig] = None) -> Dict[str, List[float]]:
    """Fig. 2: daily average and median utilisation of an ADSL population."""
    model = AdslUtilizationModel(config or AdslPopulationConfig())
    return model.figure2_data()


def figure3(trace: Optional[WirelessTrace] = None, backhaul_bps: float = 6e6) -> Dict[str, List[float]]:
    """Fig. 3: average downlink utilisation of the wireless trace on 6 Mbps links."""
    trace = trace if trace is not None else generate_crawdad_like_trace()
    series = utilization_timeseries(trace, backhaul_bps=backhaul_bps, bin_seconds=3600.0)
    return {
        "hours": [float(t) / 3600.0 for t in series["times"]],
        "avg_utilization_percent": [float(u) for u in series["utilization_percent"]],
    }


def figure4(trace: Optional[WirelessTrace] = None, backhaul_bps: float = 6e6) -> Dict[str, object]:
    """Fig. 4: histogram of idle time by inter-packet gap size at the peak hour."""
    trace = trace if trace is not None else generate_crawdad_like_trace()
    return peak_hour_gap_histogram(trace, backhaul_bps=backhaul_bps)


# ----------------------------------------------------------------------
# Section 4: the k-switch model
# ----------------------------------------------------------------------
def figure5(
    k_values: Sequence[int] = (2, 4, 8),
    m: int = 24,
    p_values: Sequence[float] = (0.5, 0.25),
    monte_carlo_trials: int = 0,
    seed: int = 0,
) -> Dict[str, Dict[str, List[float]]]:
    """Fig. 5: probability that the l-th line card sleeps, for several switch sizes.

    Returns, for every ``(p, k)`` pair, the paper's Eq. (2) curve and the
    exact binomial curve (and a Monte-Carlo estimate when
    ``monte_carlo_trials`` > 0), indexed ``"p=<p> k=<k>"``.
    """
    curves: Dict[str, Dict[str, List[float]]] = {}
    for p in p_values:
        for k in k_values:
            key = f"p={p} k={k}"
            entry: Dict[str, List[float]] = {
                "line_card": list(range(1, k + 1)),
                "paper_eq2": [card_sleep_probability_paper(l, k, m, p) for l in range(1, k + 1)],
                "exact": [card_sleep_probability_exact(l, k, m, p) for l in range(1, k + 1)],
            }
            if monte_carlo_trials > 0:
                entry["monte_carlo"] = simulate_card_sleep_probability(
                    k, m, p, trials=monte_carlo_trials, seed=seed
                )
            curves[key] = entry
    return curves


# ----------------------------------------------------------------------
# Section 5: trace-driven evaluation
# ----------------------------------------------------------------------
def run_evaluation(
    scale: Optional[EvaluationScale] = None,
    schemes: Optional[Sequence[SchemeConfig]] = None,
    scenario: Optional[Scenario] = None,
) -> SchemeComparison:
    """Run the scheme comparison all the Sec. 5 figures derive from.

    Each distinct trajectory runs once (see
    :class:`~repro.simulation.runner.ExperimentRunner`): only the BH2
    schemes run every repetition.  To spread many comparisons over
    processes, sweep them with ``repro-access sweep --workers N``.
    """
    scale = scale or quick_scale()
    runner = ExperimentRunner(
        scenario=scenario or build_scenario(scale),
        runs_per_scheme=scale.runs_per_scheme,
        step_s=scale.step_s,
        sample_interval_s=scale.sample_interval_s,
        base_seed=scale.seed,
    )
    return runner.run(list(schemes) if schemes is not None else standard_schemes())


def figure6(comparison: SchemeComparison) -> Dict[str, Dict[str, List[float]]]:
    """Fig. 6: energy savings vs. no-sleep over the day, per scheme."""
    series = {}
    for name in comparison.scheme_names:
        if name == "no-sleep":
            continue
        times, savings = comparison.savings_timeseries(name)
        series[name] = {
            "hours": [float(t) / 3600.0 for t in times],
            "savings_percent": [float(s) for s in savings],
        }
    return series


def figure7(comparison: SchemeComparison) -> Dict[str, Dict[str, List[float]]]:
    """Fig. 7: number of online gateways over the day, per scheme."""
    series = {}
    for name in comparison.scheme_names:
        times, online = comparison.online_gateways_timeseries(name)
        series[name] = {
            "hours": [float(t) / 3600.0 for t in times],
            "online_gateways": [float(o) for o in online],
        }
    return series


def figure8(comparison: SchemeComparison) -> Dict[str, Dict[str, List[float]]]:
    """Fig. 8: share of the total savings contributed by the ISP side."""
    series = {}
    for name in comparison.scheme_names:
        if name == "no-sleep":
            continue
        times, share = comparison.isp_share_timeseries(name)
        series[name] = {
            "hours": [float(t) / 3600.0 for t in times],
            "isp_share_percent": [float(s) for s in share],
        }
    return series


def table_online_cards(comparison: SchemeComparison, peak: Tuple[float, float] = PEAK_WINDOW) -> Dict[str, float]:
    """Sec. 5.2.3 table: average number of online line cards during peak hours.

    A comparison that ends before the peak window opens is averaged over its
    whole horizon, as in :func:`figure10`.
    """
    duration = comparison.scenario.trace.duration
    window = peak if duration > peak[0] else (0.0, duration)
    return {
        name: comparison.mean_online_line_cards(name, *window)
        for name in comparison.scheme_names
    }


def figure9a(comparison: SchemeComparison) -> Dict[str, Dict[str, List[float]]]:
    """Fig. 9a: CDF of flow completion time increase vs. no-sleep."""
    baseline = comparison.baseline_durations
    series = {}
    for name in comparison.scheme_names:
        if name == "no-sleep":
            continue
        result = comparison.first(name)
        values, probabilities = completion_time_variation_cdf(result, baseline)
        series[name] = {
            "variation_percent": [float(v) for v in values],
            "cdf": [float(p) for p in probabilities],
            "fraction_affected": fraction_of_flows_affected(result, baseline),
        }
    return series


def figure9b(comparison: SchemeComparison, reference_scheme: str = "SoI") -> Dict[str, Dict[str, List[float]]]:
    """Fig. 9b: CDF of per-gateway online-time variation vs. SoI (fairness)."""
    reference = comparison.first(reference_scheme)
    series = {}
    for name in comparison.scheme_names:
        if name in (reference_scheme, "no-sleep"):
            continue
        values, probabilities = online_time_variation_cdf(comparison.first(name), reference)
        series[name] = {
            "variation_percent": [float(v) for v in values],
            "cdf": [float(p) for p in probabilities],
        }
    return series


def figure10(
    densities: Sequence[float] = (1, 2, 3, 4, 5, 6, 7, 8, 9, 10),
    scale: Optional[EvaluationScale] = None,
    peak: Tuple[float, float] = PEAK_WINDOW,
) -> Dict[str, List[float]]:
    """Fig. 10: mean online gateways at peak vs. mean available gateways per user."""
    scale = scale or quick_scale()
    online: List[float] = []
    for density in densities:
        scenario = build_scenario(scale, density=float(density))
        result = run_scheme(
            scenario,
            bh2_kswitch(),
            seed=scale.seed,
            step_s=scale.step_s,
            sample_interval_s=scale.sample_interval_s,
        )
        window = peak if scale.duration_s > peak[0] else (0.0, scale.duration_s)
        online.append(result.mean_online_gateways(*window))
    return {"mean_available_gateways": [float(d) for d in densities], "online_gateways": online}


def figure12(
    trace: Optional[WirelessTrace] = None,
    config: Optional[TestbedConfig] = None,
    seed: int = 0,
) -> Dict[str, Dict[str, List[float]]]:
    """Fig. 12: number of online APs in the testbed replay, BH2 vs. SoI."""
    trace = trace if trace is not None else generate_crawdad_like_trace()
    replay = TestbedReplay(trace, config=config, seed=seed)
    results = replay.run_comparison()
    return {
        name: {
            "minutes": [float(t) / 60.0 for t in result.sample_times],
            "online_gateways": [float(o) for o in result.online_gateways],
            "mean_online": result.mean_online(),
        }
        for name, result in results.items()
    }


# ----------------------------------------------------------------------
# Section 6 and appendix
# ----------------------------------------------------------------------
def figure14(num_sequences: int = 5, seed: int = 0) -> Dict[str, Dict[str, object]]:
    """Fig. 14: average crosstalk speedup vs. number of inactive lines."""
    curves = run_figure14_experiment(seed=seed, num_sequences=num_sequences)
    return {
        label: {
            "inactive_lines": curve.inactive_counts,
            "mean_speedup_percent": curve.mean_speedup_percent,
            "std_speedup_percent": curve.std_speedup_percent,
            "baseline_mbps": curve.baseline_rate_bps / 1e6,
        }
        for label, curve in curves.items()
    }


def figure15(seed: int = 0) -> Dict[str, object]:
    """Fig. 15: per-line-card attenuation distributions of a production DSLAM."""
    synthesizer = AttenuationSynthesizer(seed=seed)
    summaries = synthesizer.summaries()
    return {
        "card_ids": [s.card_id + 1 for s in summaries],
        "mean_db": [s.mean_db for s in summaries],
        "std_db": [s.std_db for s in summaries],
        "quartiles_db": [s.quartiles_db for s in summaries],
        "means_are_similar": synthesizer.means_are_similar(),
    }


def summary_savings(comparison: SchemeComparison) -> Dict[str, float]:
    """Sec. 5.4 headline numbers: margin, achieved savings and the TWh extrapolation."""
    result: Dict[str, float] = {}
    if "Optimal" in comparison.scheme_names:
        result["margin_percent"] = 100.0 * comparison.mean_savings("Optimal")
    bh2_names = [n for n in comparison.scheme_names if n.startswith("BH2+k-switch")]
    if bh2_names:
        achieved = comparison.mean_savings(bh2_names[0])
        result["bh2_kswitch_percent"] = 100.0 * achieved
        result["world_wide_twh_per_year"] = world_wide_savings_twh(achieved)
        first = comparison.first(bh2_names[0])
        result["isp_share_of_savings_percent"] = 100.0 * first.mean_isp_share_of_savings()
    if "SoI" in comparison.scheme_names:
        result["soi_percent"] = 100.0 * comparison.mean_savings("SoI")
    return result

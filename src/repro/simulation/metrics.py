"""Post-processing of simulation results into the paper's metrics.

* :func:`completion_time_variation_cdf` — Fig. 9a: CDF of the percentage
  increase in flow completion time versus the no-sleep baseline.
* :func:`online_time_variation_cdf` — Fig. 9b: CDF of the percentage change
  in per-gateway online time versus the SoI scheme (the fairness metric).
* :func:`average_timeseries` — average aligned time series across runs, as
  the paper does over its 10 repetitions.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Sequence, Tuple

import numpy as np

from repro.simulation.simulator import SimulationResult


def cdf(values: Sequence[float]) -> Tuple[np.ndarray, np.ndarray]:
    """Empirical CDF: returns sorted values and cumulative probabilities."""
    data = np.sort(np.asarray(list(values), dtype=float))
    if data.size == 0:
        return np.array([]), np.array([])
    probabilities = np.arange(1, data.size + 1) / data.size
    return data, probabilities


def completion_time_variation_cdf(
    result: SimulationResult,
    baseline_durations: Dict[int, float],
) -> Tuple[np.ndarray, np.ndarray]:
    """CDF of the per-flow completion time increase vs. no-sleep (percent).

    ``baseline_durations`` maps flow id to its no-sleep duration.  Flows
    present in the result but missing from the baseline (or vice versa)
    are ignored.
    """
    variations: List[float] = []
    for record in result.flow_records:
        base = baseline_durations.get(record.flow_id)
        if base is not None and base > 0:
            variations.append(100.0 * (record.duration_s - base) / base)
    return cdf(variations)


def fraction_of_flows_affected(
    result: SimulationResult,
    baseline_durations: Dict[int, float],
    tolerance_percent: float = 1.0,
) -> float:
    """Fraction of flows whose completion time grew by more than the tolerance."""
    values, _probs = completion_time_variation_cdf(result, baseline_durations)
    if values.size == 0:
        return 0.0
    return float(np.mean(values > tolerance_percent))


def online_time_variation_cdf(
    result: SimulationResult, reference: SimulationResult
) -> Tuple[np.ndarray, np.ndarray]:
    """CDF of the per-gateway online-time change vs. a reference run (percent).

    This is the fairness metric of Fig. 9b with SoI as the reference: a value
    of −100 % means the gateway never powered on under the evaluated scheme,
    positive values mean the scheme kept the gateway online longer than SoI.
    """
    variations = []
    for gateway_id, reference_online in reference.gateway_online_seconds.items():
        online = result.gateway_online_seconds.get(gateway_id, 0.0)
        if reference_online <= 0:
            # The gateway never powered on under the reference either; treat
            # "still never on" as no change.
            variations.append(0.0 if online <= 0 else 100.0)
        else:
            variations.append(100.0 * (online - reference_online) / reference_online)
    return cdf(variations)


def average_timeseries(
    series: Iterable[Tuple[np.ndarray, np.ndarray]]
) -> Tuple[np.ndarray, np.ndarray]:
    """Average several ``(times, values)`` series sampled on the same grid.

    Series of different lengths are truncated to the shortest one (the final
    partial sample of a run).
    """
    series = list(series)
    if not series:
        return np.array([]), np.array([])
    min_len = min(len(times) for times, _values in series)
    if min_len == 0:
        return np.array([]), np.array([])
    times = series[0][0][:min_len]
    stacked = np.vstack([values[:min_len] for _times, values in series])
    return times, stacked.mean(axis=0)


def summarize_savings(results: Dict[str, SimulationResult]) -> Dict[str, Dict[str, float]]:
    """Day-average and peak-hour savings summary for a set of scheme results."""
    summary: Dict[str, Dict[str, float]] = {}
    for name, result in results.items():
        peak_window = (11 * 3600.0, 19 * 3600.0)
        summary[name] = {
            "mean_savings_percent": 100.0 * result.mean_savings(),
            "peak_savings_percent": 100.0 * result.mean_savings(*peak_window),
            "mean_online_gateways": result.mean_online_gateways(),
            "peak_online_gateways": result.mean_online_gateways(*peak_window),
            "mean_online_line_cards": result.mean_online_line_cards(),
            "peak_online_line_cards": result.mean_online_line_cards(*peak_window),
            "isp_share_of_savings_percent": 100.0 * result.mean_isp_share_of_savings(),
        }
    return summary

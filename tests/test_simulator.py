"""Integration tests for the access-network simulator and metrics."""

import hashlib

import numpy as np
import pytest

from repro.access.dslam import Dslam
from repro.access.gateway_array import GatewayArray, STATE_ACTIVE, STATE_SLEEPING
from repro.core.bh2 import BH2Terminal
from repro.core.schemes import bh2_kswitch, no_sleep, optimal, soi, soi_kswitch
from repro.simulation.metrics import (
    average_timeseries,
    cdf,
    completion_time_variation_cdf,
    fraction_fully_sleeping,
    fraction_of_flows_affected,
    hourly_average,
    online_time_variation_cdf,
    summarize_savings,
)
from repro.simulation.runner import ExperimentRunner, run_scheme
from repro.simulation.simulator import AccessNetworkSimulator
from repro.topology.scenario import build_default_scenario

#: A small, busy scenario (flat diurnal profile) so that aggregation effects
#: show up within a 2-hour simulation.
FLAT_PROFILE = tuple([1.0] * 24)


@pytest.fixture(scope="module")
def busy_scenario():
    return build_default_scenario(
        seed=13,
        num_clients=60,
        num_gateways=12,
        duration=2 * 3600.0,
        diurnal_profile=FLAT_PROFILE,
        peak_online_probability=0.4,
    )


@pytest.fixture(scope="module")
def results(busy_scenario):
    runner = ExperimentRunner(busy_scenario, runs_per_scheme=1, step_s=2.0, base_seed=3)
    comparison = runner.run([no_sleep(), soi(), soi_kswitch(), bh2_kswitch(), optimal()])
    return comparison


def test_no_sleep_has_zero_savings(results):
    baseline = results.first("no-sleep")
    assert baseline.mean_savings() == pytest.approx(0.0, abs=1e-6)
    assert np.all(baseline.online_gateways == baseline.num_gateways)
    assert np.all(baseline.online_line_cards == baseline.num_line_cards)


def test_all_trace_flows_complete_under_no_sleep(results, busy_scenario):
    baseline = results.first("no-sleep")
    # A handful of flows that arrive in the last seconds may still be in
    # flight when the horizon is reached; everything else must have finished.
    assert len(baseline.flow_records) >= 0.99 * busy_scenario.trace.num_flows
    assert len(baseline.flow_records) <= busy_scenario.trace.num_flows


def test_soi_saves_energy_but_flows_still_complete(results, busy_scenario):
    result = results.first("SoI")
    assert 0.0 < result.mean_savings() < 1.0
    # Nearly every flow completes (a handful may still be in flight at the horizon).
    assert len(result.flow_records) >= 0.98 * busy_scenario.trace.num_flows


def test_scheme_ordering_matches_paper(results):
    """Optimal >= BH2+k-switch >= SoI+k-switch >= SoI > no-sleep."""
    savings = {name: results.mean_savings(name) for name in results.scheme_names}
    assert savings["Optimal"] >= savings["BH2+k-switch"] - 0.02
    assert savings["BH2+k-switch"] > savings["SoI"]
    assert savings["SoI+k-switch"] >= savings["SoI"] - 0.02
    assert savings["SoI"] > savings["no-sleep"]


def test_bh2_uses_fewer_gateways_than_soi(results):
    assert results.mean_online_gateways("BH2+k-switch") < results.mean_online_gateways("SoI")


def test_optimal_uses_fewest_line_cards(results):
    cards = {name: results.mean_online_line_cards(name) for name in results.scheme_names}
    assert cards["Optimal"] <= cards["BH2+k-switch"] + 0.05
    assert cards["BH2+k-switch"] <= cards["no-sleep"]


def test_energy_breakdown_consistent_with_series(results):
    result = results.first("SoI")
    assert result.energy.total_j == pytest.approx(result.energy_series_total_j.sum(), rel=0.02)
    assert result.energy.isp_side_j == pytest.approx(result.energy_series_isp_j.sum(), rel=0.02)


def test_savings_timeseries_bounded(results):
    for name in results.scheme_names:
        _times, savings = results.first(name).savings_timeseries()
        assert np.all(savings <= 100.0 + 1e-6)


def test_isp_share_in_range(results):
    share = results.first("BH2+k-switch").mean_isp_share_of_savings()
    assert 0.0 <= share <= 1.0


def test_online_gateway_samples_bounded(results, busy_scenario):
    result = results.first("BH2+k-switch")
    assert np.all(result.online_gateways <= busy_scenario.num_gateways)
    assert np.all(result.online_gateways >= 0)
    assert np.all(np.diff(result.sample_times) > 0)


def test_gateway_online_seconds_recorded(results):
    result = results.first("SoI")
    assert len(result.gateway_online_seconds) == result.num_gateways
    assert all(v >= 0 for v in result.gateway_online_seconds.values())


def test_completion_time_cdf_and_fraction(results):
    baseline = results.first("no-sleep").flow_durations()
    values, probabilities = completion_time_variation_cdf(results.first("SoI"), baseline)
    assert len(values) == len(probabilities)
    if len(probabilities):
        assert probabilities[-1] == pytest.approx(1.0)
    affected = fraction_of_flows_affected(results.first("SoI"), baseline)
    assert 0.0 <= affected <= 1.0


def test_qos_impact_is_limited(results):
    baseline = results.first("no-sleep").flow_durations()
    soi_affected = fraction_of_flows_affected(results.first("SoI"), baseline)
    bh2_affected = fraction_of_flows_affected(results.first("BH2+k-switch"), baseline)
    # Fig. 9a's qualitative claim: only a small fraction of flows see their
    # completion time grow.  (On this small, deliberately busy scenario the
    # hand-off overhead makes BH2 affect somewhat more flows than SoI; the
    # full-day benchmark reports the paper-scale comparison.)
    assert soi_affected < 0.35
    assert bh2_affected < 0.35


def test_online_time_variation_cdf(results):
    values, probabilities = online_time_variation_cdf(results.first("BH2+k-switch"), results.first("SoI"))
    assert len(values) == results.first("SoI").num_gateways
    assert np.all(values >= -100.0 - 1e-9)
    fully = fraction_fully_sleeping(results.first("BH2+k-switch"), results.first("SoI"))
    assert 0.0 <= fully <= 1.0


def test_cdf_helper():
    values, probabilities = cdf([3.0, 1.0, 2.0])
    assert list(values) == [1.0, 2.0, 3.0]
    assert probabilities[-1] == pytest.approx(1.0)
    empty_values, empty_probabilities = cdf([])
    assert len(empty_values) == 0 and len(empty_probabilities) == 0


def test_average_timeseries_and_hourly_average():
    times = np.array([0.0, 60.0, 120.0])
    first = (times, np.array([1.0, 2.0, 3.0]))
    second = (times, np.array([3.0, 4.0, 5.0]))
    avg_times, averaged = average_timeseries([first, second])
    assert list(averaged) == [2.0, 3.0, 4.0]
    hours, hourly = hourly_average(np.array([0.0, 1800.0, 3600.0]), np.array([2.0, 4.0, 6.0]))
    assert list(hours) == [0, 1]
    assert list(hourly) == [3.0, 6.0]


def test_summarize_savings_keys(results):
    summary = summarize_savings({name: results.first(name) for name in results.scheme_names})
    assert set(summary) == set(results.scheme_names)
    assert "mean_savings_percent" in summary["SoI"]


def test_run_scheme_until_cuts_horizon(busy_scenario):
    result = run_scheme(busy_scenario, soi(), step_s=2.0, until=600.0)
    assert result.duration == pytest.approx(600.0)
    assert result.sample_times[-1] <= 600.0 + 1e-6


def test_simulator_validation(busy_scenario):
    with pytest.raises(ValueError):
        AccessNetworkSimulator(busy_scenario, soi(), step_s=0.0)


def test_runner_baseline_durations_cached(busy_scenario, monkeypatch):
    """Without a compared no-sleep run, one extra run supplies the baseline."""
    import repro.simulation.runner as runner_module

    runs = []

    def spy(scenario, scheme, **kwargs):
        runs.append(scheme.name)
        return run_scheme(scenario, scheme, **kwargs)

    monkeypatch.setattr(runner_module, "run_scheme", spy)
    runner = ExperimentRunner(busy_scenario, runs_per_scheme=2, step_s=2.0)
    comparison = runner.run([soi(), soi_kswitch()])
    assert runs == ["SoI", "SoI+k-switch", "no-sleep"]
    baseline = run_scheme(busy_scenario, no_sleep(), step_s=2.0).flow_durations()
    assert len(baseline) > 0
    assert comparison.baseline_durations == baseline


def test_bh2_rounds_read_only_the_loads_their_terminals_use(busy_scenario, monkeypatch):
    # A load is computed only for a deciding terminal: for its current
    # gateway, or for a gateway in its range when it looks for a target.
    deciding = []
    reads = []
    strays = []
    real_utilization = GatewayArray.utilization
    real_decide = BH2Terminal.decide_fast

    def utilization(self, gateway_id, now):
        in_use = deciding and gateway_id in deciding[-1]
        (reads if in_use else strays).append(gateway_id)
        return real_utilization(self, gateway_id, now)

    def decide_fast(self, now, *args):
        deciding.append({self.current_gateway, *self.reachable_gateways})
        try:
            return real_decide(self, now, *args)
        finally:
            deciding.pop()

    monkeypatch.setattr(GatewayArray, "utilization", utilization)
    monkeypatch.setattr(BH2Terminal, "decide_fast", decide_fast)
    result = run_scheme(busy_scenario, bh2_kswitch(), seed=3, step_s=2.0)
    assert result.bh2_decisions > 0 and reads
    assert strays == []


@pytest.mark.parametrize(
    "scheme", [soi_kswitch(), bh2_kswitch(), optimal()], ids=lambda scheme: scheme.name
)
def test_dslam_sync_keeps_its_line_maps_and_changed_lines_exact(
    busy_scenario, scheme, monkeypatch
):
    # The sync updates its maps for the changed gateways only; they must
    # equal maps rebuilt from every gateway's state, and the changed set
    # must hold every gateway whose state differs from the previous sync.
    simulator = AccessNetworkSimulator(busy_scenario, scheme, step_s=2.0, seed=3)
    state = simulator.gateway_array.state
    gateways = range(len(state))
    previous = list(state)
    changed_counts = []
    real_rewire = Dslam.rewire

    def rewire(self, line_active, movable=None, changed=None):
        assert line_active == {g: state[g] != STATE_SLEEPING for g in gateways}
        assert movable == {
            g for g in gateways
            if scheme.idealized_transitions or state[g] != STATE_ACTIVE
        }
        assert {g for g in gateways if state[g] != previous[g]} <= set(changed)
        previous[:] = state
        changed_counts.append(len(changed))
        return real_rewire(self, line_active, movable, changed)

    monkeypatch.setattr(Dslam, "rewire", rewire)
    simulator.run()
    assert changed_counts and max(changed_counts) > 0


def _stream_digest(simulator):
    digest = hashlib.sha256()
    for flow, start in zip(simulator._arrivals, simulator._arrival_times):
        digest.update(
            f"{flow.flow_id} {flow.client_id} {flow.start_time.hex()} "
            f"{flow.size_bytes} {start.hex()};".encode()
        )
    for period, demand in sorted(simulator._upcoming_demand.items()):
        for client, bps in sorted(demand.items()):
            digest.update(f"{period} {client} {bps.hex()};".encode())
    return digest.hexdigest()


def test_runs_over_one_trace_share_its_arrival_stream_and_demand(busy_scenario):
    first = AccessNetworkSimulator(busy_scenario, optimal(), step_s=2.0)
    second = AccessNetworkSimulator(busy_scenario, optimal(), step_s=2.0)
    assert first._arrivals is second._arrivals
    assert first._arrival_times is second._arrival_times
    assert first._upcoming_demand is second._upcoming_demand
    assert first._arrivals == busy_scenario.trace.all_flows()
    assert first._arrival_times == [f.start_time for f in first._arrivals]
    assert first._upcoming_demand
    before = _stream_digest(first)
    # Runs only read the shared stream and demand.
    run_scheme(busy_scenario, bh2_kswitch(), seed=3, step_s=2.0)
    first.run()
    assert _stream_digest(second) == before


def test_optimal_reroutes_from_a_sleeping_choice_to_the_least_loaded_gateway(
    busy_scenario,
):
    # A client whose selected gateway is a sleeping non-home gateway is
    # routed to the least-loaded online gateway in its range: the one
    # reader of the load samples the Optimal scheme keeps.
    simulator = AccessNetworkSimulator(busy_scenario, optimal(), step_s=2.0)
    reachable = busy_scenario.topology.reachable
    client = next(c for c in sorted(reachable) if len(reachable[c]) >= 3)
    home = busy_scenario.trace.home_gateway[client]
    asleep = next(g for g in reachable[client] if g != home)
    first, second = [g for g in reachable[client] if g != asleep][:2]
    array = simulator.gateway_array
    now = 100.0
    for gateway_id in (first, second):
        array.request_wake(gateway_id, now)
    array.step_to(now, {first, second})
    assert array.state[first] == array.state[second] == STATE_ACTIVE
    assert array.state[asleep] == STATE_SLEEPING

    def route(at, served):
        array.record_served(at, served)
        simulator.selected_gateway[client] = asleep
        return simulator._routing_gateway(client, at)

    assert route(now, {first: 3e6, second: 1e6}) == second
    assert route(now + 1.0, {second: 4e6}) == first

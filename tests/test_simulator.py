"""Integration tests for the access-network simulator and metrics."""

import gc
import hashlib
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from repro.access.dslam import Dslam
from repro.access.gateway_array import GatewayArray, STATE_ACTIVE, STATE_SLEEPING
from repro.core.bh2 import BH2Terminal
from repro.core.schemes import bh2_kswitch, no_sleep, optimal, soi, soi_kswitch
from repro.flows.flow import REMAINING_BYTES, TRACE_FLOW
from repro.flows.scheduler import FlowScheduler
from repro.simulation.metrics import (
    average_timeseries,
    cdf,
    completion_time_variation_cdf,
    fraction_of_flows_affected,
    online_time_variation_cdf,
    summarize_savings,
)
from repro.simulation.reference_kernel import run_scheme_reference
from repro.simulation.runner import ExperimentRunner, run_scheme
from repro.simulation.simulator import AccessNetworkSimulator
from repro.topology.scenario import build_default_scenario
from repro.traces.models import Flow

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


def test_cdf_helper():
    values, probabilities = cdf([3.0, 1.0, 2.0])
    assert list(values) == [1.0, 2.0, 3.0]
    assert probabilities[-1] == pytest.approx(1.0)
    empty_values, empty_probabilities = cdf([])
    assert len(empty_values) == 0 and len(empty_probabilities) == 0


def test_average_timeseries():
    times = np.array([0.0, 60.0, 120.0])
    first = (times, np.array([1.0, 2.0, 3.0]))
    second = (times, np.array([3.0, 4.0, 5.0]))
    avg_times, averaged = average_timeseries([first, second])
    assert list(averaged) == [2.0, 3.0, 4.0]


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
    # SoI and SoI+k-switch share one pass; no-sleep runs for the baseline.
    assert runs == ["SoI", "no-sleep"]
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


@pytest.mark.parametrize("period_s", [150.0, 10.0, 3.0])
def test_bh2_rounds_decide_when_the_seed_kernel_does(busy_scenario, period_s, monkeypatch):
    # One decide_fast call per counted decision, at the seed kernel's
    # (instant, client) sequence of decide calls.  Periods of 10 s and 3 s
    # are shorter than an idle skip, so a terminal catches up several
    # periods in one decision and due terminals can change their order.
    scheme = bh2_kswitch()
    scheme = replace(scheme, bh2=replace(scheme.bh2, decision_period_s=period_s))
    fast_calls = []
    seed_calls = []
    real_decide_fast = BH2Terminal.decide_fast
    real_decide = BH2Terminal.decide

    def decide_fast(self, now, *args):
        fast_calls.append((now, self.client_id))
        return real_decide_fast(self, now, *args)

    def decide(self, now, observations):
        seed_calls.append((now, self.client_id))
        return real_decide(self, now, observations)

    monkeypatch.setattr(BH2Terminal, "decide_fast", decide_fast)
    monkeypatch.setattr(BH2Terminal, "decide", decide)
    result = run_scheme(busy_scenario, scheme, seed=3, step_s=2.0)
    run_scheme_reference(busy_scenario, scheme, seed=3, step_s=2.0)
    assert len(fast_calls) == result.bh2_decisions > 0
    assert fast_calls == seed_calls


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


def _live_in_flight_records() -> int:
    # Only an in-flight record is a six-slot list holding a float in its
    # first slot and a trace Flow in its flow slot.
    return sum(
        1 for obj in gc.get_objects()
        if type(obj) is list and len(obj) == 6
        and type(obj[REMAINING_BYTES]) is float and type(obj[TRACE_FLOW]) is Flow
    )


def test_a_pass_keeps_only_its_in_flight_active_flows(busy_scenario, monkeypatch):
    """Finished flows live on as completion columns, not as in-flight records.

    With the result alive, the only in-flight records left are the flows
    still in flight at the horizon.  The records built from the columns
    come in completion order (the order serve() finds completions in: its
    serving gateways in turn, each group in order) and equal the seed
    kernel's, record for record.
    """
    completions = []
    real_serve = FlowScheduler.serve

    def spy(self, now, dt):
        in_order = [flow for g in self._serving for flow in self._groups[g]]
        totals = real_serve(self, now, dt)
        still = {id(flow) for group in self._groups.values() for flow in group}
        completions.extend(
            flow[TRACE_FLOW].flow_id for flow in in_order if id(flow) not in still
        )
        return totals

    monkeypatch.setattr(FlowScheduler, "serve", spy)
    before = _live_in_flight_records()
    simulator = AccessNetworkSimulator(busy_scenario, soi(), step_s=2.0, seed=1)
    result = simulator.run()
    in_flight = len(simulator.scheduler.active_flows)
    assert result.served_flows > 1000 and in_flight > 0
    assert _live_in_flight_records() - before == in_flight
    monkeypatch.undo()

    records = list(result.flow_records)
    assert [record.flow_id for record in records] == completions
    reference = run_scheme_reference(busy_scenario, soi(), seed=1, step_s=2.0)
    by_id = sorted(reference.flow_records, key=lambda record: record.flow_id)
    assert sorted(records, key=lambda record: record.flow_id) == by_id


def test_a_pass_keeps_little_memory_per_served_flow(busy_scenario):
    """What a pass keeps alive with its result, per served flow.

    A ``paper-default`` SoI pass kept ~210 B per served flow while every
    finished ActiveFlow stayed alive, and ~43 B with completion columns.
    """
    run_scheme(busy_scenario, soi(), seed=1, step_s=2.0)  # the trace's lazy caches
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        result = run_scheme(busy_scenario, soi(), seed=1, step_s=2.0)
        kept = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert result.served_flows > 1000
    assert kept / result.served_flows < 120, kept / result.served_flows

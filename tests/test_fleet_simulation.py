"""Integration tests for fleet heterogeneity and churn in the kernel.

The two pillars:

* with the homogeneous default fleet and an empty churn timeline the
  kernel's trajectory is **bit-identical** to both the plain (fleet-less)
  kernel and the preserved seed kernel;
* heterogeneous fleets charge energy per gateway generation, and churn
  events execute at their exact instants with flows rescued or dropped.
"""

import numpy as np
import pytest

from repro.access.gateway_array import GatewayArray, STATE_ACTIVE, STATE_SLEEPING, STATE_WAKING
from repro.access.soi import SoIConfig
from repro.core.schemes import bh2_kswitch, no_sleep, optimal, soi
from repro.fleet import (
    ChurnEvent,
    ChurnKind,
    ChurnTimeline,
    EMPTY_TIMELINE,
    FLEETS,
    HOMOGENEOUS,
)
from repro.power.models import DEFAULT_POWER_MODEL
from repro.simulation.reference_kernel import run_scheme_reference
from repro.simulation.runner import run_scheme
from repro.simulation.simulator import AccessNetworkSimulator
from repro.sweep.catalog import family
from repro.sweep.engine import SweepConfig, expand_tasks
from repro.topology.overlap import GatewayTopology
from repro.topology.scenario import Scenario, build_default_scenario
from repro.traces.models import ClientTrace, Flow, WirelessTrace

FLAT_PROFILE = tuple([1.0] * 24)

SCENARIO_ARGS = dict(
    seed=13,
    num_clients=40,
    num_gateways=10,
    duration=3600.0,
    diurnal_profile=FLAT_PROFILE,
    peak_online_probability=0.4,
)


@pytest.fixture(scope="module")
def plain_scenario():
    return build_default_scenario(**SCENARIO_ARGS)


@pytest.fixture(scope="module")
def fleeted_scenario():
    return build_default_scenario(
        **SCENARIO_ARGS, fleet=HOMOGENEOUS, churn=EMPTY_TIMELINE
    )


# ----------------------------------------------------------------------
# Bit-identity of the homogeneous default
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "scheme", [no_sleep(), soi(), bh2_kswitch(), optimal()], ids=lambda s: s.name
)
def test_homogeneous_fleet_is_bit_identical_to_plain_kernel(
    plain_scenario, fleeted_scenario, scheme
):
    plain = run_scheme(plain_scenario, scheme, seed=3, step_s=2.0)
    fleeted = run_scheme(fleeted_scenario, scheme, seed=3, step_s=2.0)
    assert fleeted.mean_savings() == plain.mean_savings()  # delta 0.0, not approx
    assert fleeted.mean_online_gateways() == plain.mean_online_gateways()
    assert fleeted.energy.total_j == plain.energy.total_j
    assert np.array_equal(fleeted.sample_times, plain.sample_times)
    assert np.array_equal(fleeted.online_gateways, plain.online_gateways)
    assert np.array_equal(fleeted.waking_gateways, plain.waking_gateways)
    assert np.array_equal(fleeted.energy_series_total_j, plain.energy_series_total_j)


@pytest.mark.parametrize("scheme", [soi(), bh2_kswitch()], ids=lambda s: s.name)
def test_homogeneous_fleet_matches_seed_kernel_trajectory(
    plain_scenario, fleeted_scenario, scheme
):
    reference = run_scheme_reference(plain_scenario, scheme, seed=3, step_s=2.0)
    fleeted = run_scheme(fleeted_scenario, scheme, seed=3, step_s=2.0)
    assert np.array_equal(reference.sample_times, fleeted.sample_times)
    assert np.array_equal(reference.online_gateways, fleeted.online_gateways)
    assert np.array_equal(reference.waking_gateways, fleeted.waking_gateways)
    assert np.array_equal(reference.online_line_cards, fleeted.online_line_cards)
    assert fleeted.mean_savings() == pytest.approx(reference.mean_savings(), abs=1e-9)


# ----------------------------------------------------------------------
# Heterogeneous power accounting
# ----------------------------------------------------------------------
def test_no_sleep_mixed_fleet_energy_matches_hand_computation():
    fleet = FLEETS["tri-mix"]
    scenario = build_default_scenario(**SCENARIO_ARGS, fleet=fleet)
    result = run_scheme(scenario, no_sleep(), seed=3, step_s=2.0)
    duration = scenario.trace.duration
    assignment, active_w, _sleep, _wake, _times = fleet.device_arrays(10, 60.0)
    # Always-on: every gateway draws its own active_w for the whole trace.
    assert result.energy.user_side_j == pytest.approx(sum(active_w) * duration, rel=1e-9)
    for index, name in enumerate(fleet.generation_names):
        expected = sum(
            active_w[g] for g in range(10) if assignment[g] == index
        ) * duration
        assert result.generation_energy_j[name] == pytest.approx(expected, rel=1e-9)
    # The baseline equals the consumption, so savings are exactly ~0.
    assert result.mean_savings() == pytest.approx(0.0, abs=1e-9)
    isp = DEFAULT_POWER_MODEL.isp_side_power(
        modems_online=10, line_cards_online=scenario.dslam.num_line_cards
    )
    assert result.baseline_power_w == pytest.approx(sum(active_w) + isp, rel=1e-12)
    assert result.generation_counts == {
        name: count for name, count in zip(fleet.generation_names, fleet.counts(10))
    }


def test_mixed_fleet_sleeping_saves_more_than_legacy_uniform():
    """Efficient hardware must translate into lower absolute energy."""
    legacy = build_default_scenario(**SCENARIO_ARGS)
    efficient = build_default_scenario(**SCENARIO_ARGS, fleet=FLEETS["efficient-only"])
    legacy_result = run_scheme(legacy, soi(), seed=3, step_s=2.0)
    efficient_result = run_scheme(efficient, soi(), seed=3, step_s=2.0)
    assert efficient_result.energy.user_side_j < legacy_result.energy.user_side_j
    # Per-generation split covers the whole user side.
    assert sum(efficient_result.generation_energy_j.values()) == pytest.approx(
        efficient_result.energy.user_side_j, rel=1e-12
    )


def test_gateway_array_power_snapshot_tracks_states_and_service():
    soi_config = SoIConfig(idle_timeout_s=60.0, wake_up_time_s=60.0)
    array = GatewayArray(
        num_gateways=3,
        backhaul_bps=6e6,
        soi=soi_config,
        power_w=([9.0, 5.0, 7.0], [0.0, 0.3, 0.1], [9.0, 6.0, 8.5]),
        wake_time_s=[60.0, 30.0, 90.0],
        generation=[0, 1, 2],
        num_generations=3,
    )
    # Everyone starts asleep: only the (in-service) sleep draws count.
    assert array.power_snapshot() == ((0.0, 0.0, 0.0), (0.0, 0.0, 0.0), (0.0, 0.3, 0.1))
    array.request_wake(0, 0.0)
    array.request_wake(1, 0.0)
    assert array.power_snapshot() == ((0.0, 0.0, 0.0), (9.0, 6.0, 0.0), (0.0, 0.0, 0.1))
    # Per-gateway wake durations: gateway 1 (30 s) completes before 0 (60 s).
    array.step_to(30.0, {0, 1})
    assert array.state[1] == STATE_ACTIVE
    assert array.state[0] == STATE_WAKING
    array.step_to(60.0, {0, 1})
    assert array.state[0] == STATE_ACTIVE
    assert array.power_snapshot() == ((9.0, 5.0, 0.0), (0.0, 0.0, 0.0), (0.0, 0.0, 0.1))
    # An unplugged gateway draws nothing and refuses to wake.
    array.set_in_service(2, False, 61.0)
    assert array.power_snapshot()[2] == (0.0, 0.0, 0.0)
    array.request_wake(2, 62.0)
    assert array.state[2] == STATE_SLEEPING
    # Re-deployment with activation powers it straight up.
    array.set_in_service(2, True, 70.0, activate=True)
    assert array.state[2] == STATE_ACTIVE
    assert array.power_snapshot()[0] == (9.0, 5.0, 7.0)
    # Force-sleep puts an active device down immediately.
    array.force_sleep(0, 80.0)
    assert array.state[0] == STATE_SLEEPING
    assert array.power_snapshot()[0] == (0.0, 5.0, 7.0)


# ----------------------------------------------------------------------
# Churn execution
# ----------------------------------------------------------------------
def _single_flow_scenario(reachable, churn, size_bytes=150_000_000, duration=2400.0):
    trace = WirelessTrace(
        duration=duration,
        clients={0: ClientTrace(client_id=0, flows=[
            Flow(flow_id=1, client_id=0, start_time=10.0, size_bytes=size_bytes),
        ])},
        home_gateway={0: 0},
        num_gateways=2,
    )
    topology = GatewayTopology(
        num_gateways=2, home_gateway={0: 0}, reachable={0: frozenset(reachable)}
    )
    return Scenario(trace=trace, topology=topology, churn=churn)


def test_departing_gateway_hands_its_only_flow_to_a_neighbour():
    """Aggregation schemes can re-attach a cut-off client's flow."""
    churn = ChurnTimeline((
        ChurnEvent(at_s=90.0, kind=ChurnKind.GATEWAY_LEAVE, gateway_id=0),
    ))
    scenario = _single_flow_scenario({0, 1}, churn)
    result = run_scheme(scenario, bh2_kswitch(), seed=1, step_s=2.0)
    assert result.dropped_flows == 0
    records = {r.flow_id: r for r in result.flow_records}
    assert set(records) == {1}
    # The flow finished on the rescue gateway, after its wake-up.
    assert records[1].gateway_id == 1
    assert records[1].completion_time > 150.0
    # The decommissioned gateway never comes back online.
    mask = result.sample_times > 160.0
    assert result.online_gateways[mask].max() <= 1


def test_departing_gateway_with_no_neighbour_drops_the_flow():
    churn = ChurnTimeline((
        ChurnEvent(at_s=90.0, kind=ChurnKind.GATEWAY_LEAVE, gateway_id=0),
    ))
    scenario = _single_flow_scenario({0}, churn)
    result = run_scheme(scenario, bh2_kswitch(), seed=1, step_s=2.0)
    assert result.dropped_flows == 1
    assert len(result.flow_records) == 0


def test_non_aggregating_schemes_cannot_hitch_hike_a_rescue():
    """Without aggregation every flow goes through the home gateway, so a
    decommissioned home cuts the client off even with neighbours in range."""
    churn = ChurnTimeline((
        ChurnEvent(at_s=90.0, kind=ChurnKind.GATEWAY_LEAVE, gateway_id=0),
    ))
    scenario = _single_flow_scenario({0, 1}, churn)
    for scheme in (no_sleep(), soi()):
        result = run_scheme(scenario, scheme, seed=1, step_s=2.0)
        assert result.dropped_flows == 1, scheme.name
        assert len(result.flow_records) == 0, scheme.name


def test_churn_executes_at_exact_off_grid_instants():
    """A decommission at t=33 s must cut the gateway's online time at
    exactly 33 s even though the step grid is 2 s."""
    churn = ChurnTimeline((
        ChurnEvent(at_s=33.0, kind=ChurnKind.GATEWAY_LEAVE, gateway_id=1),
    ))
    scenario = build_default_scenario(**SCENARIO_ARGS, churn=churn)
    result = run_scheme(scenario, no_sleep(), seed=3, step_s=2.0)
    assert result.gateway_online_seconds[1] == pytest.approx(33.0, abs=1e-9)
    # Baseline stays the full deployment: unplugging a gateway now *saves*.
    assert result.mean_savings() > 0.0


def test_gateway_join_powers_up_mid_trace_under_no_sleep():
    churn = ChurnTimeline((
        ChurnEvent(at_s=1800.0, kind=ChurnKind.GATEWAY_JOIN, gateway_id=4),
    ))
    scenario = build_default_scenario(**SCENARIO_ARGS, churn=churn)
    result = run_scheme(scenario, no_sleep(), seed=3, step_s=2.0)
    # Samples record the state *before* loop-top actions (the kernel's
    # convention for decision epochs too), so the t=1800 sample still shows
    # the old fleet and every later one the grown fleet.
    early = result.sample_times <= 1800.0
    late = result.sample_times > 1800.0
    assert result.online_gateways[early].max() == 9
    assert result.online_gateways[late].min() == 10
    assert result.gateway_online_seconds[4] == pytest.approx(1800.0, abs=1e-9)


def test_unsubscribing_client_cancels_in_flight_and_future_flows():
    trace = WirelessTrace(
        duration=2400.0,
        clients={0: ClientTrace(client_id=0, flows=[
            Flow(flow_id=1, client_id=0, start_time=10.0, size_bytes=150_000_000),
            Flow(flow_id=2, client_id=0, start_time=900.0, size_bytes=1_000_000),
        ])},
        home_gateway={0: 0},
        num_gateways=2,
    )
    topology = GatewayTopology(
        num_gateways=2, home_gateway={0: 0}, reachable={0: frozenset({0, 1})}
    )
    churn = ChurnTimeline((
        ChurnEvent(at_s=100.0, kind=ChurnKind.CLIENT_LEAVE, client_id=0),
    ))
    scenario = Scenario(trace=trace, topology=topology, churn=churn)
    simulator = AccessNetworkSimulator(scenario, no_sleep(), step_s=2.0, seed=1)
    result = simulator.run()
    assert result.dropped_flows == 1  # flow 1, cancelled in flight at t=100
    assert result.suppressed_arrivals == 1  # flow 2 never admitted
    assert len(result.flow_records) == 0


def test_churn_event_on_a_bh2_decision_epoch():
    """An outage landing exactly on a BH2 decision epoch is applied before
    the decisions run — the round must see the gateway offline and the run
    must stay consistent."""
    scenario = build_default_scenario(**SCENARIO_ARGS)
    probe = AccessNetworkSimulator(scenario, bh2_kswitch(), step_s=2.0, seed=3)
    epoch, first = probe._decision_heap[0]
    victim = probe._terminal_list[first].home_gateway
    churn = ChurnTimeline((
        ChurnEvent(
            at_s=epoch, kind=ChurnKind.GATEWAY_FAIL, gateway_id=victim, duration_s=600.0
        ),
    ))
    churned_scenario = build_default_scenario(**SCENARIO_ARGS, churn=churn)
    simulator = AccessNetworkSimulator(churned_scenario, bh2_kswitch(), step_s=2.0, seed=3)
    # Same seed, same construction order: the decision epochs are identical.
    assert simulator._decision_heap[0][0] == epoch
    result = simulator.run()
    assert simulator._churn_index == 2  # outage + recovery both executed
    assert simulator.gateway_array.in_service[victim]  # recovered
    # No flows may be lost: the victim's traffic was rescued.
    total_flows = churned_scenario.trace.num_flows
    assert len(result.flow_records) + result.dropped_flows >= 0.95 * total_flows
    # The outage left a trace: the trajectory diverged from the static run.
    static = run_scheme(scenario, bh2_kswitch(), seed=3, step_s=2.0)
    assert result.energy.total_j != static.energy.total_j


def test_optimal_scheme_avoids_out_of_service_gateways():
    churn = ChurnTimeline((
        ChurnEvent(
            at_s=600.0, kind=ChurnKind.GATEWAY_FAIL, gateway_id=2, duration_s=1200.0
        ),
    ))
    scenario = build_default_scenario(**SCENARIO_ARGS, churn=churn)
    simulator = AccessNetworkSimulator(scenario, optimal(), step_s=2.0, seed=3)
    result = simulator.run()
    # The solver never re-selects the failed gateway during its outage, and
    # the run completes with its flows accounted for.
    total_flows = scenario.trace.num_flows
    assert len(result.flow_records) + result.dropped_flows >= 0.95 * total_flows
    assert simulator.gateway_array.in_service[2]


def test_optimal_builds_its_capacity_map_again_only_when_service_changes():
    """The solver keys its reachability memo on the identity of the
    capacity map, so the kernel hands it a new map only after a gateway
    enters or leaves service; every map lists the in-service gateways."""
    churn = ChurnTimeline((
        ChurnEvent(
            at_s=600.0, kind=ChurnKind.GATEWAY_FAIL, gateway_id=2, duration_s=1200.0
        ),
        ChurnEvent(at_s=1500.0, kind=ChurnKind.GATEWAY_LEAVE, gateway_id=5),
    ))
    scenario = build_default_scenario(**SCENARIO_ARGS, churn=churn)
    simulator = AccessNetworkSimulator(scenario, optimal(), step_s=2.0, seed=3)
    solver = simulator._optimal_solver
    real_solve = solver.solve
    maps = []  # kept alive, so no two maps share an id()

    def spy(problem):
        in_service = simulator.gateway_array.in_service
        assert problem.capacities_bps == {
            g: scenario.wireless.backhaul_bps
            for g in range(scenario.num_gateways)
            if in_service[g]
        }
        maps.append(problem.capacities_bps)
        return real_solve(problem)

    solver.solve = spy
    simulator.run()
    gateway_actions = sum(1 for action in simulator._churn_actions if action.kind.is_gateway)
    assert gateway_actions == 3
    assert len(maps) > 10 * (1 + gateway_actions)
    assert len({id(capacities) for capacities in maps}) <= 1 + gateway_actions


# ----------------------------------------------------------------------
# Flow conservation on the churn sweep cells
# ----------------------------------------------------------------------
def _conservation_terms(spec_label):
    """Run every sweep cell of one catalog spec; the ledger of its flows.

    Each trace arrival ends a run in exactly one place: served, dropped,
    suppressed (client out of service), still in flight, or never
    admitted (it arrives after the last step).  The seed kernel predates
    churn and fleets, so this law is the oracle for these paths.
    """
    family_name = spec_label.split("[")[0]
    tasks = [
        task
        for task in expand_tasks([family(family_name)], None, SweepConfig())
        if task.spec.label == spec_label
    ]
    assert tasks, spec_label
    scenario = tasks[0].spec.build()
    rows = {}
    for task in tasks:
        simulator = AccessNetworkSimulator(
            scenario,
            task.scheme,
            step_s=task.step_s,
            sample_interval_s=task.sample_interval_s,
            seed=task.seed,
        )
        result = simulator.run()
        name = task.scheme.name
        arrivals = len(simulator._arrival_times)
        rows[name] = dict(
            served=result.served_flows,
            dropped=result.dropped_flows,
            suppressed=result.suppressed_arrivals,
            in_flight=len(simulator.scheduler.active_flows),
            never_admitted=arrivals - simulator._arrival_index,
        )
        assert sum(rows[name].values()) == arrivals, f"{spec_label} {name}: {rows[name]}"
        records = result.flow_records
        assert result.served_flows == len(records), f"{spec_label} {name}"
        assert result.served_bytes == sum(r.size_bytes for r in records), (
            f"{spec_label} {name}"
        )
    return rows


@pytest.mark.parametrize(
    "spec_label",
    [
        "correlated-outage[churn=midday-dropout]",
        "correlated-outage[churn=dslam-outage]",
    ],
)
def test_flow_conservation_under_correlated_outage(spec_label):
    rows = _conservation_terms(spec_label)
    if spec_label.endswith("dslam-outage]"):
        # The whole-DSLAM outage must actually cost flows, or the law
        # would only be checked on its trivial terms.
        assert any(row["dropped"] for row in rows.values()), rows


def test_flow_conservation_under_evening_expansion():
    rows = _conservation_terms("gateway-churn[churn=evening-expansion]")
    # Every term of the ledger is exercised by at least one scheme.
    for term in ("served", "dropped", "suppressed", "in_flight", "never_admitted"):
        assert any(row[term] for row in rows.values()), (term, rows)

"""Tests for the flow-level transfer model."""

from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from repro.flows.flow import REMAINING_BYTES, TRACE_FLOW, ActiveFlow
from repro.flows.scheduler import FlowScheduler, max_min_allocation
from repro.simulation.metrics import completion_time_variation_cdf
from repro.simulation.reference_kernel import ReferenceFlowScheduler
from repro.traces.models import Flow


def make_flow(flow_id=0, client=0, size=750_000, start=0.0):
    return Flow(flow_id=flow_id, client_id=client, start_time=start, size_bytes=size)


def make_active(flow_id=0, client=0, gateway=0, size=750_000, start=0.0, wireless=12e6):
    return ActiveFlow(
        flow=make_flow(flow_id, client, size, start),
        gateway_id=gateway,
        wireless_capacity_bps=wireless,
    )


def admit(scheduler, flow_id=0, client=0, gateway=0, size=750_000, wireless=12e6):
    """Admit a trace flow; returns its in-flight record."""
    return scheduler.admit(make_flow(flow_id, client, size), gateway, wireless)


def test_max_min_equal_split():
    assert max_min_allocation(6e6, [10e6, 10e6]) == [pytest.approx(3e6), pytest.approx(3e6)]


def test_max_min_respects_caps():
    allocation = max_min_allocation(6e6, [1e6, 10e6])
    assert allocation[0] == pytest.approx(1e6)
    assert allocation[1] == pytest.approx(5e6)


def test_max_min_empty_and_zero_cases():
    assert max_min_allocation(6e6, []) == []
    assert max_min_allocation(0.0, [1e6]) == [0.0]
    with pytest.raises(ValueError):
        max_min_allocation(-1.0, [1.0])
    with pytest.raises(ValueError):
        max_min_allocation(1.0, [-1.0])


@given(
    capacity=st.floats(min_value=0.0, max_value=1e8),
    caps=st.lists(st.floats(min_value=0.0, max_value=1e8), min_size=1, max_size=12),
)
@settings(max_examples=80, deadline=None)
def test_max_min_allocation_invariants(capacity, caps):
    allocation = max_min_allocation(capacity, caps)
    assert len(allocation) == len(caps)
    assert all(a >= -1e-9 for a in allocation)
    assert all(a <= c + 1e-6 for a, c in zip(allocation, caps))
    assert sum(allocation) <= capacity + 1e-3
    # Work conserving: either the capacity is exhausted or every flow hit its cap.
    if sum(caps) >= capacity:
        assert sum(allocation) == pytest.approx(min(capacity, sum(caps)), rel=1e-6, abs=1e-3)


def test_active_flow_serve_and_complete():
    flow = make_active(size=750_000)
    bits = flow.serve(6e6, dt=0.5, now=0.0)
    assert bits == pytest.approx(3e6)
    assert not flow.done
    flow.serve(6e6, dt=0.5, now=0.5)
    assert flow.done
    assert flow.completion_time == pytest.approx(1.0)
    record = flow.to_record()
    assert record.duration_s == pytest.approx(1.0)


def test_active_flow_record_before_completion_fails():
    flow = make_active()
    with pytest.raises(ValueError):
        flow.to_record()


def test_scheduler_serves_only_online_gateways():
    scheduler = FlowScheduler(backhaul_bps=6e6)
    flow = admit(scheduler, gateway=3)
    scheduler.step(now=0.0, dt=1.0, online_gateways=set())
    assert flow[REMAINING_BYTES] == 750_000
    assert scheduler.records() == []
    served = scheduler.step(now=1.0, dt=1.0, online_gateways={3})
    [record] = scheduler.records()
    assert record.flow_id == 0 and scheduler.active_flows == []
    assert served[3] == pytest.approx(750_000 * 8)
    # Waiting for the gateway delayed completion past the ideal 1 s.
    assert record.completion_time == pytest.approx(2.0)


def test_scheduler_shares_backhaul_between_flows():
    scheduler = FlowScheduler(backhaul_bps=6e6)
    first = admit(scheduler, flow_id=0, size=750_000)
    second = admit(scheduler, flow_id=1, size=750_000)
    scheduler.step(now=0.0, dt=1.0, online_gateways={0})
    assert first[REMAINING_BYTES] == pytest.approx(375_000)
    assert second[REMAINING_BYTES] == pytest.approx(375_000)


def test_scheduler_wireless_cap_limits_flow():
    scheduler = FlowScheduler(backhaul_bps=6e6)
    slow = admit(scheduler, flow_id=0, wireless=1e6)
    fast = admit(scheduler, flow_id=1, wireless=12e6)
    scheduler.step(now=0.0, dt=1.0, online_gateways={0})
    assert slow[REMAINING_BYTES] == pytest.approx(750_000 - 1e6 / 8)
    assert fast[REMAINING_BYTES] == pytest.approx(750_000 - 5e6 / 8)


def test_scheduler_demand_estimates():
    scheduler = FlowScheduler(backhaul_bps=6e6)
    admit(scheduler, flow_id=0, client=7, gateway=1, size=6_000_000)
    demand = scheduler.client_demand_bps(horizon_s=60.0)
    assert demand[7] == pytest.approx(6_000_000 * 8 / 60.0)


def test_scheduler_records_with_baselines():
    scheduler = FlowScheduler(backhaul_bps=6e6)
    admit(scheduler, flow_id=5)
    scheduler.step(now=0.0, dt=2.0, online_gateways={0})
    records = scheduler.records()
    assert len(records) == 1
    values, _ = completion_time_variation_cdf(SimpleNamespace(flow_records=records), {5: 0.5})
    assert list(values) == pytest.approx([100.0])


def test_admission_and_migration_reject_a_non_positive_wireless_capacity():
    scheduler = FlowScheduler(backhaul_bps=6e6)
    for capacity in (0.0, -1.0):
        with pytest.raises(ValueError, match="wireless_capacity_bps"):
            admit(scheduler, wireless=capacity)
    assert scheduler.active_flows == []
    flow = admit(scheduler, gateway=0)
    with pytest.raises(ValueError, match="wireless_capacity_bps"):
        scheduler.migrate(flow, 1, 0.0)
    assert scheduler.active_flows == [flow] and scheduler._groups == {0: [flow]}


def test_zero_dt_step_is_a_noop():
    scheduler = FlowScheduler(backhaul_bps=6e6)
    flow = admit(scheduler)
    served = scheduler.step(now=0.0, dt=0.0, online_gateways={0})
    assert served == {}
    assert scheduler.records() == []
    assert flow[REMAINING_BYTES] == 750_000


def test_a_drained_gateway_is_not_rated_again():
    # A gateway left without flows has nothing to rate, so only a gateway
    # with flows left after a completion is recomputed at the next step;
    # every completion lands in the completion columns as it is found.
    scheduler = FlowScheduler(backhaul_bps=6e6)
    online = {0, 1}
    admit(scheduler, flow_id=0, gateway=0, size=750_000)
    admit(scheduler, flow_id=1, gateway=1, size=375_000)
    admit(scheduler, flow_id=2, gateway=1, size=750_000)
    scheduler.step(now=0.0, dt=1.0, online_gateways=online)
    assert sorted(record.flow_id for record in scheduler.records()) == [0, 1]
    assert scheduler._dirty == {1}
    recomputes = scheduler.rate_recomputes
    scheduler.step(now=1.0, dt=1.0, online_gateways=online)
    assert [record.flow_id for record in scheduler.records()[2:]] == [2]
    assert scheduler.rate_recomputes == recomputes + 1
    assert scheduler._dirty == set()
    hits = scheduler.rate_cache_hits
    scheduler.ensure_rates(scheduler._online_ref)
    assert scheduler.rate_cache_hits == hits + 1
    assert scheduler.served_flows == 3
    assert scheduler.served_bytes == 1_875_000
    records = scheduler.records()
    assert sorted((r.flow_id, r.gateway_id) for r in records) == [(0, 0), (1, 1), (2, 1)]
    assert sorted(r.completion_time for r in records) == [1.0, 1.0, 1.5]


_step = st.fixed_dictionaries({
    # (gateway, size in bytes, wireless cap as a multiple of the backhaul)
    "admissions": st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=3),
            st.one_of(
                st.integers(min_value=1, max_value=2_000),
                st.integers(min_value=1, max_value=20_000_000),
            ),
            st.one_of(
                st.sampled_from([0.1, 0.25, 0.5, 1.0, 2.0]),
                st.floats(min_value=0.01, max_value=4.0),
            ),
        ),
        max_size=5,
    ),
    "online": st.sets(st.integers(min_value=0, max_value=3)),
    "dt": st.one_of(
        st.sampled_from([0.5, 1.0, 2.0]), st.floats(min_value=0.01, max_value=3.0)
    ),
})


@given(
    backhaul=st.sampled_from([1e6, 6e6, 2e7]),
    gateways=st.integers(min_value=1, max_value=4),
    steps=st.lists(_step, min_size=1, max_size=12),
    last_dt=st.floats(min_value=1e-3, max_value=0.5),
)
@settings(max_examples=300, deadline=None)
def test_scheduler_serves_like_the_seed_scheduler(backhaul, gateways, steps, last_dt):
    """The cached-rate scheduler replays the seed's per-step scheduler.

    Flows are admitted on 1-4 gateways between steps whose online set and
    length change, and some are too large to finish within a step.  After
    every step the per-gateway served bits and each flow's remaining
    bytes are identical, and so are the completion instants at the end.
    """
    live = FlowScheduler(backhaul_bps=backhaul)
    seed = ReferenceFlowScheduler(backhaul_bps=backhaul)
    admitted = []  # (live record, seed ActiveFlow)
    now = 0.0
    steps = steps + [{"admissions": [], "online": set(range(gateways)), "dt": last_dt}]
    for step in steps:
        for gateway, size, cap_share in step["admissions"]:
            flow = make_flow(len(admitted), len(admitted) % 3, size, now)
            gateway %= gateways
            cap = backhaul * cap_share
            admitted.append((live.admit(flow, gateway, cap), ActiveFlow(flow, gateway, cap)))
            seed.admit(admitted[-1][1])
        served = live.step(now, step["dt"], step["online"])
        seed_served, _completed = seed.step(now, step["dt"], step["online"])
        assert {g: bits for g, bits in served.items() if bits > 0} == {
            g: bits for g, bits in seed_served.items() if bits > 0
        }
        assert [record[REMAINING_BYTES] for record, _ in admitted] == [
            active.remaining_bytes for _, active in admitted
        ]
        assert sorted(record[TRACE_FLOW].flow_id for record in live.active_flows) == sorted(
            active.flow.flow_id for active in seed.active_flows
        )
        now += step["dt"]
    assert {record.flow_id: record.completion_time for record in live.records()} == {
        active.flow.flow_id: active.completion_time for active in seed.completed_flows
    }
    assert live.served_flows == len(seed.completed_flows)
    assert live.served_bytes == sum(active.flow.size_bytes for active in seed.completed_flows)

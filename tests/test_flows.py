"""Tests for the flow-level transfer model."""

from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from repro.flows.flow import ActiveFlow
from repro.flows.scheduler import FlowScheduler, max_min_allocation
from repro.simulation.metrics import completion_time_variation_cdf
from repro.traces.models import Flow


def make_active(flow_id=0, client=0, gateway=0, size=750_000, start=0.0, wireless=12e6):
    return ActiveFlow(
        flow=Flow(flow_id=flow_id, client_id=client, start_time=start, size_bytes=size),
        gateway_id=gateway,
        wireless_capacity_bps=wireless,
    )


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
    record = flow.to_record(baseline_duration_s=1.0)
    assert record.duration_s == pytest.approx(1.0)
    assert record.variation_vs_baseline_percent() == pytest.approx(0.0)


def test_active_flow_record_before_completion_fails():
    flow = make_active()
    with pytest.raises(ValueError):
        flow.to_record()


def test_scheduler_serves_only_online_gateways():
    scheduler = FlowScheduler(backhaul_bps=6e6)
    flow = make_active(gateway=3)
    scheduler.admit(flow)
    scheduler.step(now=0.0, dt=1.0, online_gateways=set())
    assert not flow.done
    served, completed = scheduler.step(now=1.0, dt=1.0, online_gateways={3})
    assert completed == [flow]
    assert served[3] == pytest.approx(750_000 * 8)
    # Waiting for the gateway delayed completion past the ideal 1 s.
    assert flow.completion_time == pytest.approx(2.0)


def test_scheduler_shares_backhaul_between_flows():
    scheduler = FlowScheduler(backhaul_bps=6e6)
    first = make_active(flow_id=0, size=750_000)
    second = make_active(flow_id=1, size=750_000)
    scheduler.admit(first)
    scheduler.admit(second)
    scheduler.step(now=0.0, dt=1.0, online_gateways={0})
    assert first.remaining_bytes == pytest.approx(375_000)
    assert second.remaining_bytes == pytest.approx(375_000)


def test_scheduler_wireless_cap_limits_flow():
    scheduler = FlowScheduler(backhaul_bps=6e6)
    slow = make_active(flow_id=0, wireless=1e6)
    fast = make_active(flow_id=1, wireless=12e6)
    scheduler.admit(slow)
    scheduler.admit(fast)
    scheduler.step(now=0.0, dt=1.0, online_gateways={0})
    assert slow.remaining_bytes == pytest.approx(750_000 - 1e6 / 8)
    assert fast.remaining_bytes == pytest.approx(750_000 - 5e6 / 8)


def test_scheduler_demand_estimates():
    scheduler = FlowScheduler(backhaul_bps=6e6)
    scheduler.admit(make_active(flow_id=0, client=7, gateway=1, size=6_000_000))
    demand = scheduler.client_demand_bps(horizon_s=60.0)
    assert demand[7] == pytest.approx(6_000_000 * 8 / 60.0)


def test_scheduler_records_with_baselines():
    scheduler = FlowScheduler(backhaul_bps=6e6)
    flow = make_active(flow_id=5)
    scheduler.admit(flow)
    scheduler.step(now=0.0, dt=2.0, online_gateways={0})
    records = scheduler.records()
    assert len(records) == 1
    values, _ = completion_time_variation_cdf(SimpleNamespace(flow_records=records), {5: 0.5})
    assert list(values) == pytest.approx([100.0])


def test_admitting_completed_flow_rejected():
    scheduler = FlowScheduler(backhaul_bps=6e6)
    flow = make_active()
    flow.serve(6e6, dt=10.0, now=0.0)
    with pytest.raises(ValueError):
        scheduler.admit(flow)


def test_zero_dt_step_is_a_noop():
    scheduler = FlowScheduler(backhaul_bps=6e6)
    flow = make_active()
    scheduler.admit(flow)
    served, completed = scheduler.step(now=0.0, dt=0.0, online_gateways={0})
    assert served == {}
    assert completed == []

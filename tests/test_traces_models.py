"""Tests for the trace data model."""

import pickle

import pytest

from repro.traces.models import ClientTrace, Flow, TraceStats, WirelessTrace


def make_trace(flows_per_client=None, num_gateways=4, duration=3600.0):
    flows_per_client = flows_per_client or {0: [(0.0, 1000)], 1: [(10.0, 2000)]}
    clients = {}
    home = {}
    flow_id = 0
    for client_id, flows in flows_per_client.items():
        client_flows = []
        for start, size in flows:
            client_flows.append(Flow(flow_id=flow_id, client_id=client_id, start_time=start, size_bytes=size))
            flow_id += 1
        clients[client_id] = ClientTrace(client_id=client_id, flows=client_flows)
        home[client_id] = client_id % num_gateways
    return WirelessTrace(duration=duration, clients=clients, home_gateway=home, num_gateways=num_gateways)


def test_flow_validation():
    with pytest.raises(ValueError, match="start_time must be non-negative, got -1.0"):
        Flow(flow_id=0, client_id=0, start_time=-1.0, size_bytes=10)
    with pytest.raises(ValueError, match="size must be positive, got 0"):
        Flow(flow_id=0, client_id=0, start_time=0.0, size_bytes=0)
    with pytest.raises(ValueError, match="size must be positive, got -5"):
        Flow(0, 0, 0.0, -5, "bulk")


def test_flow_is_an_immutable_value_record():
    flow = Flow(flow_id=3, client_id=1, start_time=2.5, size_bytes=1200, kind="bulk")
    assert flow == Flow(3, 1, 2.5, 1200, "bulk")
    assert flow != Flow(3, 1, 2.5, 1200, "web")
    assert hash(flow) == hash(Flow(3, 1, 2.5, 1200, "bulk"))
    assert len({flow, Flow(3, 1, 2.5, 1200, "bulk"), Flow(4, 1, 2.5, 1200, "bulk")}) == 2
    assert Flow(0, 0, 0.0, 1).kind == "web"
    with pytest.raises(AttributeError):
        flow.size_bytes = 1
    with pytest.raises(AttributeError):
        flow.note = "extra"
    assert flow.size_bytes == 1200
    assert repr(flow) == (
        "Flow(flow_id=3, client_id=1, start_time=2.5, size_bytes=1200, kind='bulk')"
    )
    copy = pickle.loads(pickle.dumps(flow))
    assert copy == flow and type(copy) is Flow


def test_client_trace_totals_and_sorting():
    trace = ClientTrace(client_id=0, flows=[
        Flow(flow_id=1, client_id=0, start_time=5.0, size_bytes=10),
        Flow(flow_id=0, client_id=0, start_time=1.0, size_bytes=20),
    ])
    assert trace.total_bytes == 30
    assert [f.flow_id for f in trace.flows_between(0.0, 2.0)] == [0]


def test_wireless_trace_validation_missing_home():
    clients = {0: ClientTrace(client_id=0)}
    with pytest.raises(ValueError):
        WirelessTrace(duration=10.0, clients=clients, home_gateway={}, num_gateways=1)


def test_wireless_trace_validation_bad_gateway():
    clients = {0: ClientTrace(client_id=0)}
    with pytest.raises(ValueError):
        WirelessTrace(duration=10.0, clients=clients, home_gateway={0: 5}, num_gateways=2)


def test_wireless_trace_counts():
    trace = make_trace()
    assert trace.num_clients == 2
    assert trace.num_flows == 2
    assert trace.total_bytes == 3000


def test_all_flows_sorted_by_time():
    trace = make_trace({0: [(50.0, 10)], 1: [(5.0, 10)], 2: [(25.0, 10)]})
    starts = [f.start_time for f in trace.all_flows()]
    assert starts == sorted(starts)


def test_flows_by_gateway_partition():
    trace = make_trace({0: [(0.0, 10)], 1: [(1.0, 10)], 2: [(2.0, 10)]})
    grouped = trace.flows_by_gateway()
    total = sum(len(flows) for flows in grouped.values())
    assert total == trace.num_flows
    assert set(grouped) == set(range(trace.num_gateways))


def test_restricted_to_window_shifts_times():
    trace = make_trace({0: [(100.0, 10), (500.0, 20)]}, duration=1000.0)
    window = trace.restricted_to_window(90.0, 200.0)
    flows = window.clients[0].flows
    assert len(flows) == 1
    assert flows[0].start_time == pytest.approx(10.0)
    assert window.duration == pytest.approx(110.0)


def test_restricted_to_window_validation():
    trace = make_trace()
    with pytest.raises(ValueError):
        trace.restricted_to_window(100.0, 50.0)


def test_trace_stats_peak_hour():
    trace = make_trace({0: [(0.0, 1000)], 1: [(7200.0, 50_000_000)]}, duration=3 * 3600.0)
    stats = TraceStats.from_trace(trace, backhaul_bps=6e6)
    assert stats.peak_hour == 2
    assert stats.num_flows == 2
    assert 0 < stats.peak_hour_utilization <= 1.0

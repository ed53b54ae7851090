"""Tests for the testbed replay (Sec. 5.3 / Fig. 12)."""

import hashlib

import pytest

from repro.testbed import deployment
from repro.testbed import replay as testbed_replay
from repro.testbed.deployment import GatewayStatusServer, build_testbed_workload
from repro.testbed.scheduler import Scheduler
from repro.traces.synthetic import generate_crawdad_like_trace


@pytest.fixture(scope="module")
def trace():
    return generate_crawdad_like_trace(seed=21, num_clients=80, num_gateways=20, duration=17 * 3600.0)


@pytest.fixture(scope="module")
def default_trace():
    return generate_crawdad_like_trace()


def test_config_validation():
    with pytest.raises(ValueError):
        deployment.TestbedConfig(num_gateways=0)
    with pytest.raises(ValueError):
        deployment.TestbedConfig(low_threshold=0.6, high_threshold=0.5)
    assert deployment.TestbedConfig().window_duration_s == pytest.approx(1800.0)


def test_build_workload_shapes(trace):
    config = deployment.TestbedConfig(window_start_s=15 * 3600.0, window_end_s=15.5 * 3600.0)
    flows, reachable = build_testbed_workload(trace, config, seed=1)
    assert set(flows) == set(range(config.num_gateways))
    assert set(reachable) == set(range(config.num_gateways))
    for terminal, gateways in reachable.items():
        assert terminal in gateways
        assert len(gateways) <= config.max_reachable
    for terminal_flows in flows.values():
        assert all(0 <= f.start_time <= config.window_duration_s for f in terminal_flows)


def test_scheduler_resumes_in_time_order():
    scheduler = Scheduler()
    order = []

    def proc(delay, name):
        yield delay
        order.append(name)

    scheduler.process(proc(5.0, "late"))
    scheduler.process(proc(1.0, "early"))
    scheduler.run(until=10.0)
    assert order == ["early", "late"]


def test_scheduler_keeps_fifo_order_at_equal_times():
    scheduler = Scheduler()
    order = []

    def proc(name):
        order.append((scheduler.now, name))
        yield 1.0
        order.append((scheduler.now, name))

    scheduler.process(proc("a"))
    scheduler.process(proc("b"))
    scheduler.run(until=5.0)
    assert order == [(0.0, "a"), (0.0, "b"), (1.0, "a"), (1.0, "b")]


def test_scheduler_run_until_stops_clock_exactly():
    scheduler = Scheduler()

    def proc():
        while True:
            yield 3.0

    scheduler.process(proc())
    scheduler.run(until=10.0)
    assert scheduler.now == 10.0


def test_scheduler_rejects_until_in_the_past():
    scheduler = Scheduler()
    scheduler.run(until=10.0)
    with pytest.raises(ValueError):
        scheduler.run(until=5.0)


def test_scheduler_rejects_negative_delay():
    scheduler = Scheduler()

    def proc():
        yield -1.0

    scheduler.process(proc())
    with pytest.raises(ValueError):
        scheduler.run(until=10.0)


def test_scheduler_process_exception_escapes_run():
    scheduler = Scheduler()
    server = GatewayStatusServer(scheduler, deployment.TestbedConfig())

    def terminal():
        yield 1.0
        server.report_traffic(0, 100.0)

    scheduler.process(terminal())
    with pytest.raises(RuntimeError, match="served traffic while sleeping"):
        scheduler.run(until=10.0)


def test_status_server_lifecycle():
    scheduler = Scheduler()
    config = deployment.TestbedConfig(idle_timeout_s=60.0, wake_up_time_s=60.0)
    server = GatewayStatusServer(scheduler, config)
    assert server.status(0) == GatewayStatusServer.SLEEPING
    server.request_wake(0)
    assert server.status(0) == GatewayStatusServer.WAKING
    scheduler.now = 61.0
    assert server.status(0) == GatewayStatusServer.ACTIVE
    server.report_traffic(0, 1e6)
    scheduler.now = 200.0
    assert server.status(0) == GatewayStatusServer.SLEEPING


def test_status_server_rejects_traffic_while_sleeping():
    scheduler = Scheduler()
    server = GatewayStatusServer(scheduler, deployment.TestbedConfig())
    with pytest.raises(RuntimeError):
        server.report_traffic(0, 100.0)


def test_status_server_load_estimation():
    scheduler = Scheduler()
    config = deployment.TestbedConfig(adsl_bps=3e6, load_window_s=60.0)
    server = GatewayStatusServer(scheduler, config)
    server.request_wake(0)
    scheduler.now = 61.0
    server.report_traffic(0, 0.3 * 3e6 * 60.0)
    assert server.load(0) == pytest.approx(0.3)


def test_replay_bh2_sleeps_more_than_soi(trace):
    replay = testbed_replay.TestbedReplay(trace, seed=2)
    results = replay.run_comparison()
    assert set(results) == {"BH2", "SoI"}
    num_gateways = replay.config.num_gateways
    bh2_sleeping = results["BH2"].mean_sleeping(num_gateways)
    soi_sleeping = results["SoI"].mean_sleeping(num_gateways)
    # Fig. 12: BH2 keeps more gateways asleep than plain SoI.
    assert bh2_sleeping >= soi_sleeping - 0.25
    for result in results.values():
        assert len(result.sample_times) == len(result.online_gateways)
        assert all(0 <= count <= num_gateways for count in result.online_gateways)


def test_replay_records_online_time(trace):
    replay = testbed_replay.TestbedReplay(trace, seed=4)
    result = replay.run(use_bh2=False)
    assert set(result.gateway_online_seconds) == set(range(replay.config.num_gateways))
    assert result.completed_flows >= 0


#: sha256 prefixes of every replay's full output, per (trace, replay seed)
#: and scheme: any change to event order, timing or float arithmetic in
#: the replay shows up here.
REPLAY_DIGESTS = {
    ("trace", 0): {"BH2": "c93adffee6b568cf", "SoI": "9fa4fbecc37bb2a2"},
    ("trace", 2): {"BH2": "4272823ad4fef9c6", "SoI": "2d7dac7697696457"},
    ("default_trace", 0): {"BH2": "0539ecc075be8748", "SoI": "28af3128f884a2e3"},
    ("default_trace", 2): {"BH2": "5fcc136afc7ced91", "SoI": "281ba6f5cb20a9c6"},
}


def _result_digest(result):
    payload = repr((
        result.scheme,
        [t.hex() for t in result.sample_times],
        result.online_gateways,
        sorted((g, s.hex()) for g, s in result.gateway_online_seconds.items()),
        result.completed_flows,
    ))
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


@pytest.mark.parametrize("trace_name,seed", sorted(REPLAY_DIGESTS))
def test_replay_is_bit_identical_to_pinned_digests(request, trace_name, seed):
    trace = request.getfixturevalue(trace_name)
    results = testbed_replay.TestbedReplay(trace, seed=seed).run_comparison()
    digests = {scheme: _result_digest(result) for scheme, result in results.items()}
    assert digests == REPLAY_DIGESTS[(trace_name, seed)]

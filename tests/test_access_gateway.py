"""Tests for the gateway Sleep-on-Idle state machine."""

import pytest

from repro.access.gateway import Gateway
from repro.access.soi import SoIConfig


def make_gateway(**kwargs):
    defaults = dict(gateway_id=0, backhaul_bps=6e6, soi=SoIConfig(idle_timeout_s=60.0, wake_up_time_s=60.0))
    defaults.update(kwargs)
    return Gateway(**defaults)


def test_soi_config_validation():
    with pytest.raises(ValueError):
        SoIConfig(idle_timeout_s=-1.0)


def test_gateway_starts_sleeping_when_sleep_enabled():
    gateway = make_gateway()
    assert gateway.is_sleeping


def test_gateway_starts_active_when_sleep_disabled():
    gateway = make_gateway(sleep_enabled=False)
    assert gateway.is_online


def test_wake_sequence():
    gateway = make_gateway()
    gateway.request_wake(now=10.0)
    assert gateway.is_waking
    gateway.step(now=50.0, dt=40.0)
    assert gateway.is_waking
    gateway.step(now=70.0, dt=20.0)
    assert gateway.is_online
    assert gateway.wake_count == 1


def test_wake_request_ignored_when_online():
    gateway = make_gateway(initially_sleeping=False)
    gateway.request_wake(now=0.0)
    assert gateway.is_online
    assert gateway.wake_count == 0


def test_sleep_after_idle_timeout():
    gateway = make_gateway(initially_sleeping=False)
    gateway.record_traffic(1000.0, now=0.0)
    gateway.step(now=59.0, dt=59.0)
    assert gateway.is_online
    gateway.step(now=61.0, dt=2.0)
    assert gateway.is_sleeping
    assert gateway.sleep_count == 1


def test_pending_traffic_prevents_sleep():
    gateway = make_gateway(initially_sleeping=False)
    gateway.step(now=100.0, dt=100.0, has_pending_traffic=True)
    assert gateway.is_online


def test_no_sleep_mode_never_sleeps():
    gateway = make_gateway(sleep_enabled=False)
    gateway.step(now=10_000.0, dt=10_000.0)
    assert gateway.is_online


def test_traffic_through_sleeping_gateway_is_an_error():
    gateway = make_gateway()
    with pytest.raises(RuntimeError):
        gateway.record_traffic(100.0, now=0.0)


def test_utilization_window():
    gateway = make_gateway(initially_sleeping=False, load_window_s=60.0)
    # 3 Mbit over a 60 s window on a 6 Mbps line = ~0.83 % ... actually 3e6/(6e6*60).
    gateway.record_traffic(3e6, now=30.0)
    assert gateway.utilization(now=60.0) == pytest.approx(3e6 / (6e6 * 60.0))
    # The sample expires once it falls out of the window.
    assert gateway.utilization(now=200.0) == pytest.approx(0.0)


def test_utilization_is_capped_at_one():
    gateway = make_gateway(initially_sleeping=False)
    gateway.record_traffic(1e12, now=1.0)
    assert gateway.utilization(now=2.0) == 1.0


def test_online_time_accounting():
    gateway = make_gateway()
    gateway.step(now=30.0, dt=30.0)            # sleeping
    gateway.request_wake(now=30.0)
    gateway.step(now=90.0, dt=60.0)            # waking
    gateway.step(now=120.0, dt=30.0, has_pending_traffic=True)  # active
    assert gateway.sleeping_seconds == pytest.approx(30.0)
    assert gateway.waking_seconds == pytest.approx(60.0)
    assert gateway.online_seconds == pytest.approx(30.0)


def test_next_transition_time():
    gateway = make_gateway()
    assert gateway.next_transition_time() is None
    gateway.request_wake(now=0.0)
    assert gateway.next_transition_time() == pytest.approx(60.0)
    gateway.step(now=60.0, dt=60.0)
    gateway.record_traffic(10.0, now=60.0)
    assert gateway.next_transition_time() == pytest.approx(120.0)


def test_wake_resets_idle_clock():
    gateway = make_gateway()
    gateway.request_wake(now=0.0)
    gateway.step(now=60.0, dt=60.0)
    assert gateway.is_online
    # Fresh boot: should not immediately sleep even though no traffic ever flowed.
    gateway.step(now=100.0, dt=40.0)
    assert gateway.is_online
    gateway.step(now=121.0, dt=21.0)
    assert gateway.is_sleeping


def test_invalid_construction():
    with pytest.raises(ValueError):
        make_gateway(backhaul_bps=0.0)
    with pytest.raises(ValueError):
        make_gateway(load_window_s=0.0)

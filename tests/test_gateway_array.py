"""GatewayArray semantics vs. the single-gateway reference state machine.

:class:`repro.access.gateway_array.GatewayArray` advances every gateway in
lockstep with O(changes) per step; :class:`repro.access.gateway.Gateway` is
the per-device reference.  These tests drive both through identical
scripts and require identical observable behaviour, plus cover the fast
paths (pick replication, utilisation caching) the array adds.
"""

import numpy as np
import pytest

from repro.access.gateway import Gateway
from repro.access.gateway_array import (
    GatewayArray,
    STATE_ACTIVE,
    STATE_SLEEPING,
    STATE_WAKING,
)
from repro.access.soi import SoIConfig
from repro.core.bh2 import BH2Config, BH2Terminal, GatewayObservation
from repro.power.models import PowerState


def make_pair(**kwargs):
    defaults = dict(
        backhaul_bps=6e6,
        soi=SoIConfig(idle_timeout_s=60.0, wake_up_time_s=60.0),
        sleep_enabled=True,
        load_window_s=60.0,
        initially_sleeping=True,
    )
    defaults.update(kwargs)
    gateway = Gateway(gateway_id=0, **defaults)
    array = GatewayArray(num_gateways=3, **defaults)
    return gateway, array


def drive(gateway: Gateway, array: GatewayArray, script):
    """Run (time, action) steps against both models, comparing states."""
    for now, action, pending in script:
        if action == "wake":
            gateway.request_wake(now)
            array.request_wake(0, now)
        elif action == "touch":
            gateway.touch(now)
            array.touch(0, now)
        elif isinstance(action, float):
            gateway.record_traffic(action, now)
            array.record_served(now, {0: action})
        gateway.step(now, 1.0, has_pending_traffic=pending)
        array.step_to(now, {0} if pending else set())
        assert array.state[0] == {
            PowerState.SLEEPING: STATE_SLEEPING,
            PowerState.WAKING: STATE_WAKING,
            PowerState.ACTIVE: STATE_ACTIVE,
        }[gateway.state], f"state diverged at t={now} after {action}"


def test_wake_sleep_cycle_matches_gateway():
    gateway, array = make_pair()
    script = [
        (0.0, None, False),
        (1.0, "wake", True),
        (30.0, None, True),
        (61.0, None, True),  # wake completes
        (62.0, 1e6, True),
        (63.0, 1e6, False),
        (90.0, None, False),
        (124.0, None, False),  # idle timeout expires (63 + 60 <= 124)
        (125.0, None, False),
    ]
    drive(gateway, array, script)
    assert gateway.wake_count == array.wake_count[0]
    assert gateway.sleep_count == array.sleep_count[0]
    assert gateway.bits_served == array.bits_served[0]


def test_utilization_matches_gateway():
    gateway, array = make_pair(initially_sleeping=False, sleep_enabled=False)
    for t, bits in [(10.0, 3e6), (20.0, 1.5e6), (70.0, 2e6)]:
        gateway.record_traffic(bits, t)
        array.record_served(t, {0: bits})
    for query in (75.0, 79.9, 81.0, 130.0):
        assert array.utilization(0, query) == pytest.approx(
            gateway.utilization(query), abs=0.0
        ), f"utilisation diverged at t={query}"


def test_utilization_cache_consistent_after_expiry():
    _, array = make_pair(initially_sleeping=False, sleep_enabled=False)
    array.record_served(10.0, {0: 3e6})
    first = array.utilization(0, 60.0)
    again = array.utilization(0, 60.0)  # cache hit path
    assert again == first
    late = array.utilization(0, 71.0)  # the 10 s sample expired
    assert late == 0.0


def test_idle_transition_candidates_match_gateway_scan():
    gateway, array = make_pair()
    gateway.request_wake(5.0)
    array.request_wake(0, 5.0)
    expected = gateway.next_transition_time()
    assert array.idle_transition_candidates(5.0) == expected


def test_zero_timeout_pinned_gateways_never_sleep():
    _, array = make_pair(soi=SoIConfig(idle_timeout_s=0.0, wake_up_time_s=0.0))
    array.request_wake(0, 0.0)
    array.step_to(1.0, set())
    assert array.state[0] == STATE_ACTIVE
    # Pinned (pending) gateways survive a zero idle timeout ...
    array.step_to(2.0, {0})
    assert array.state[0] == STATE_ACTIVE
    # ... and sleep the moment they stop being pinned.
    array.step_to(3.0, set())
    assert array.state[0] == STATE_SLEEPING


def test_fast_pick_matches_generator_choice():
    """decide_fast's inlined choice must replay rng.choice bit for bit."""
    master = np.random.default_rng(123)
    for _ in range(500):
        n = int(master.integers(1, 8))
        loads = (master.random(n) + 0.01).tolist()
        seed = int(master.integers(2**31))

        terminal_a = BH2Terminal(
            client_id=0,
            home_gateway=0,
            reachable_gateways=frozenset(range(n + 1)),
            rng=np.random.default_rng(seed),
        )
        terminal_b = BH2Terminal(
            client_id=0,
            home_gateway=0,
            reachable_gateways=frozenset(range(n + 1)),
            rng=np.random.default_rng(seed),
        )
        # Align both generators (constructors consume one uniform draw).
        observations = [
            GatewayObservation(gateway_id=g, online=True, load=min(1.0, loads[g - 1]))
            for g in range(1, n + 1)
        ]
        picked_reference = terminal_a._pick_proportional_to_load(observations)
        picked_fast = terminal_b._pick_fast(
            [o.gateway_id for o in observations], [o.load for o in observations]
        )
        assert picked_fast == picked_reference
        # The streams stay aligned after the draw as well.
        assert terminal_a._rng.random() == terminal_b._rng.random()


def test_decide_fast_matches_decide():
    """The array decision path reproduces the dict path exactly."""
    config = BH2Config()
    master = np.random.default_rng(99)
    for trial in range(200):
        num_gateways = 6
        online = [bool(master.integers(0, 2)) for _ in range(num_gateways)]
        loads = [float(master.random() * 0.6) for _ in range(num_gateways)]
        home = int(master.integers(0, num_gateways))
        current = int(master.integers(0, num_gateways))
        seed = int(master.integers(2**31))

        def build():
            terminal = BH2Terminal(
                client_id=1,
                home_gateway=home,
                reachable_gateways=frozenset(range(num_gateways)),
                config=config,
                rng=np.random.default_rng(seed),
            )
            terminal.current_gateway = current
            return terminal

        terminal_dict = build()
        terminal_fast = build()
        observations = {
            g: GatewayObservation(gateway_id=g, online=online[g], load=loads[g] if online[g] else 0.0)
            for g in range(num_gateways)
        }
        # Offline gateways are asleep or waking: neither is online.
        state = [
            STATE_ACTIVE if online[g] else (STATE_WAKING if g % 2 else STATE_SLEEPING)
            for g in range(num_gateways)
        ]
        obs_loads = [loads[g] if online[g] else 0.0 for g in range(num_gateways)]
        reads = []

        def utilization(gateway_id, now):
            reads.append((gateway_id, now))
            return obs_loads[gateway_id]

        decision = terminal_dict.decide(100.0 + trial, observations)
        selected, wake_home = terminal_fast.decide_fast(100.0 + trial, state, utilization)
        # Loads are read only for online gateways, at the decision instant.
        assert all(online[g] and now == 100.0 + trial for g, now in reads)
        assert selected == decision.selected_gateway
        assert wake_home == decision.wake_home
        assert terminal_fast.current_gateway == terminal_dict.current_gateway
        assert terminal_fast.moves_to_remote == terminal_dict.moves_to_remote
        assert terminal_fast.returns_home == terminal_dict.returns_home
        assert terminal_fast._next_decision_at == terminal_dict._next_decision_at

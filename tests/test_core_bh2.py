"""Tests for the BH2 terminal algorithm."""

import numpy as np
import pytest

from repro.core.bh2 import BH2Action, BH2Config, BH2Terminal, GatewayObservation


def obs(gateway_id, load, online=True):
    return GatewayObservation(gateway_id=gateway_id, online=online, load=load)


def make_terminal(backup=1, reachable=(0, 1, 2, 3), home=0, seed=0, **config_kwargs):
    config = BH2Config(backup=backup, **config_kwargs)
    return BH2Terminal(
        client_id=42,
        home_gateway=home,
        reachable_gateways=frozenset(reachable),
        config=config,
        rng=np.random.default_rng(seed),
    )


def test_config_validation():
    with pytest.raises(ValueError):
        BH2Config(low_threshold=0.6, high_threshold=0.5)
    with pytest.raises(ValueError):
        BH2Config(backup=-1)
    with pytest.raises(ValueError):
        BH2Config(candidate_min_load=0.9)
    config = BH2Config()
    assert config.strict_paper_variant().candidate_min_load == config.low_threshold


def test_home_must_be_reachable():
    with pytest.raises(ValueError):
        BH2Terminal(client_id=0, home_gateway=9, reachable_gateways=frozenset({0, 1}))


def test_stays_home_when_home_is_busy():
    terminal = make_terminal()
    decision = terminal.decide(0.0, {0: obs(0, 0.3), 1: obs(1, 0.2), 2: obs(2, 0.2), 3: obs(3, 0.2)})
    assert decision.action is BH2Action.STAY
    assert terminal.at_home


def test_moves_to_remote_when_home_idle_and_candidates_exist():
    terminal = make_terminal()
    decision = terminal.decide(0.0, {0: obs(0, 0.02), 1: obs(1, 0.25), 2: obs(2, 0.30), 3: obs(3, 0.01, online=False)})
    assert decision.action is BH2Action.MOVE_TO_REMOTE
    assert decision.selected_gateway in (1, 2)
    assert not terminal.at_home


def test_backup_requirement_blocks_move():
    terminal = make_terminal(backup=1)
    # Only one eligible candidate: not enough for 1 selected + 1 backup.
    decision = terminal.decide(0.0, {0: obs(0, 0.02), 1: obs(1, 0.25), 2: obs(2, 0.0), 3: obs(3, 0.0)})
    assert decision.action is BH2Action.STAY
    assert terminal.at_home


def test_no_backup_allows_single_candidate():
    terminal = make_terminal(backup=0)
    decision = terminal.decide(0.0, {0: obs(0, 0.02), 1: obs(1, 0.25), 2: obs(2, 0.0), 3: obs(3, 0.0)})
    assert decision.action is BH2Action.MOVE_TO_REMOTE
    assert decision.selected_gateway == 1


def test_saturated_gateways_are_not_candidates():
    terminal = make_terminal(backup=0)
    decision = terminal.decide(0.0, {0: obs(0, 0.02), 1: obs(1, 0.8), 2: obs(2, 0.6), 3: obs(3, 0.9)})
    assert decision.action is BH2Action.STAY


def test_offline_gateways_are_not_candidates():
    terminal = make_terminal(backup=0)
    decision = terminal.decide(0.0, {0: obs(0, 0.02), 1: obs(1, 0.3, online=False), 2: obs(2, 0.0), 3: obs(3, 0.0)})
    assert decision.action is BH2Action.STAY


def test_returns_home_when_remote_saturates():
    terminal = make_terminal()
    terminal.current_gateway = 1
    decision = terminal.decide(0.0, {0: obs(0, 0.0, online=False), 1: obs(1, 0.9), 2: obs(2, 0.2), 3: obs(3, 0.2)})
    assert decision.action is BH2Action.RETURN_HOME
    assert decision.selected_gateway == 0
    assert decision.wake_home  # home was offline
    assert terminal.at_home


def test_returns_home_when_remote_disappears():
    terminal = make_terminal()
    terminal.current_gateway = 1
    decision = terminal.decide(0.0, {0: obs(0, 0.5), 1: obs(1, 0.0, online=False), 2: obs(2, 0.0), 3: obs(3, 0.0)})
    assert decision.action is BH2Action.RETURN_HOME
    assert not decision.wake_home  # home was already online


def test_stays_at_remote_in_band():
    terminal = make_terminal()
    terminal.current_gateway = 2
    decision = terminal.decide(0.0, {0: obs(0, 0.0, online=False), 1: obs(1, 0.2), 2: obs(2, 0.3), 3: obs(3, 0.2)})
    assert decision.action is BH2Action.STAY
    assert terminal.current_gateway == 2


def test_moves_between_remotes_when_current_drains():
    terminal = make_terminal()
    terminal.current_gateway = 1
    decision = terminal.decide(0.0, {0: obs(0, 0.0, online=False), 1: obs(1, 0.01), 2: obs(2, 0.3), 3: obs(3, 0.25)})
    assert decision.action is BH2Action.MOVE_TO_REMOTE
    assert decision.selected_gateway in (2, 3)


def test_returns_home_when_remote_drains_without_alternatives():
    terminal = make_terminal()
    terminal.current_gateway = 1
    decision = terminal.decide(0.0, {0: obs(0, 0.0, online=False), 1: obs(1, 0.01), 2: obs(2, 0.0), 3: obs(3, 0.0)})
    assert decision.action is BH2Action.RETURN_HOME
    assert decision.wake_home


def test_strict_variant_needs_loaded_candidates():
    terminal = make_terminal(candidate_min_load=0.10)
    # Two gateways carry light traffic below the low threshold: under the
    # strict (literal) reading they are not candidates, so the client stays.
    decision = terminal.decide(0.0, {0: obs(0, 0.02), 1: obs(1, 0.05), 2: obs(2, 0.06), 3: obs(3, 0.0)})
    assert decision.action is BH2Action.STAY


def test_selection_is_load_proportional_on_average():
    counts = {1: 0, 2: 0}
    for seed in range(300):
        terminal = make_terminal(seed=seed)
        decision = terminal.decide(0.0, {0: obs(0, 0.01), 1: obs(1, 0.45), 2: obs(2, 0.15), 3: obs(3, 0.0)})
        if decision.action is BH2Action.MOVE_TO_REMOTE:
            counts[decision.selected_gateway] += 1
    assert counts[1] > 2 * counts[2]


def test_decision_timer_advances():
    terminal = make_terminal()
    assert terminal.decision_due(terminal.decision_offset_s + 1.0)
    terminal.decide(terminal.decision_offset_s + 1.0, {g: obs(g, 0.3) for g in range(4)})
    assert not terminal.decision_due(terminal.decision_offset_s + 1.0)


def test_decision_offsets_differ_across_terminals():
    offsets = {make_terminal(seed=s).decision_offset_s for s in range(10)}
    assert len(offsets) > 1

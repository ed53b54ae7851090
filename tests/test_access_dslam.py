"""Tests for the DSLAM model and HDF switching."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.access.dslam import Dslam, SwitchingMode
from repro.access.gateway_array import STATE_ACTIVE, STATE_SLEEPING, STATE_WAKING
from repro.topology.scenario import DslamConfig


def make_dslam(mode=None, switch_size=4, full=False, num_lines=10):
    config = DslamConfig(num_line_cards=4, ports_per_card=3, switch_size=switch_size, full_switch=full)
    ports = {line: line for line in range(num_lines)}
    return Dslam(config, ports, mode=mode)


def test_mode_derivation_from_config():
    assert SwitchingMode.from_config(DslamConfig(switch_size=None)) is SwitchingMode.FIXED
    assert SwitchingMode.from_config(DslamConfig(switch_size=4)) is SwitchingMode.KSWITCH
    assert SwitchingMode.from_config(DslamConfig(switch_size=None, full_switch=True)) is SwitchingMode.FULL


def test_card_of_port_and_line():
    dslam = make_dslam(switch_size=None)
    assert dslam.card_of_port(0) == 0
    assert dslam.card_of_port(11) == 3
    with pytest.raises(ValueError):
        dslam.card_of_port(99)


def test_duplicate_ports_rejected():
    config = DslamConfig(num_line_cards=2, ports_per_card=2, switch_size=None)
    with pytest.raises(ValueError):
        Dslam(config, {0: 0, 1: 0})


def test_fixed_mode_never_rewires():
    dslam = make_dslam(switch_size=None)
    before = dict(dslam.line_port)
    dslam.rewire({line: True for line in before})
    assert dslam.line_port == before


def test_online_cards_counts_cards_with_active_lines():
    dslam = make_dslam(switch_size=None)
    # Lines 0-2 are on card 0, lines 3-5 on card 1, ...
    assert dslam.online_cards([0, 1]) == {0}
    assert len(dslam.online_cards([0, 3, 9])) == 3
    assert len(dslam.online_cards([])) == 0


def test_kswitch_packs_active_lines_onto_few_cards():
    dslam = make_dslam(switch_size=4)
    active = {line: line in (0, 1, 2) for line in range(10)}
    dslam.rewire(active)
    online = dslam.online_cards([0, 1, 2])
    # Three active lines can share a single card after packing (3 ports per card).
    assert len(online) == 1


def test_kswitch_respects_pinned_active_lines():
    dslam = make_dslam(switch_size=4)
    # First pack with lines 0..5 active so they land on high cards.
    active = {line: line < 6 for line in range(10)}
    dslam.rewire(active)
    cards_before = {line: dslam.card_of_line(line) for line in range(6)}
    # Now only lines 0..2 stay active and are NOT movable: their cards must not change.
    active = {line: line < 3 for line in range(10)}
    movable = {line for line in range(10) if line >= 3}
    dslam.rewire(active, movable)
    for line in range(3):
        assert dslam.card_of_line(line) == cards_before[line]


def test_full_switch_packs_minimally():
    dslam = make_dslam(full=True, switch_size=None)
    active_lines = [0, 4, 8, 9]
    dslam.rewire({line: line in active_lines for line in range(10)})
    assert len(dslam.online_cards(active_lines)) == 2  # ceil(4 active / 3 ports)


def test_full_switch_with_pinned_lines():
    dslam = make_dslam(full=True, switch_size=None)
    line_cards_before = {line: dslam.card_of_line(line) for line in range(10)}
    active = {line: line in (0, 9) for line in range(10)}
    # Line 0 is active and may not be moved; everything else may.
    dslam.rewire(active, movable=set(range(1, 10)))
    assert dslam.card_of_line(0) == line_cards_before[0]
    # Line 9 moved next to line 0 so a single card suffices.
    assert len(dslam.online_cards([0, 9])) == 1


def test_rewire_keeps_unique_ports():
    dslam = make_dslam(switch_size=4)
    import numpy as np
    rng = np.random.default_rng(0)
    for _ in range(20):
        active = {line: bool(rng.random() < 0.5) for line in range(10)}
        movable = {line for line, a in active.items() if not a}
        dslam.rewire(active, movable)
        ports = list(dslam.line_port.values())
        assert len(set(ports)) == len(ports)
        assert all(0 <= p < dslam.config.total_ports for p in ports)


# ----------------------------------------------------------------------
# Re-packing only the k-switches whose lines changed
# ----------------------------------------------------------------------
STATES = (STATE_SLEEPING, STATE_WAKING, STATE_ACTIVE)


@st.composite
def kswitch_histories(draw):
    """A KSWITCH layout, a random initial wiring and per-line state changes."""
    k = draw(st.integers(2, 5))
    num_cards = draw(st.integers(k, 11))
    ports_per_card = draw(st.integers(1, 5))
    total_ports = num_cards * ports_per_card
    num_lines = draw(st.integers(1, total_ports))
    ports = draw(st.permutations(range(total_ports)))[:num_lines]
    # The simulator's two policies, plus the Dslam's own default.
    policy = draw(st.sampled_from(("idealized", "not-active", None)))
    initial = draw(st.lists(st.sampled_from(STATES), min_size=num_lines, max_size=num_lines))
    syncs = draw(st.lists(
        st.lists(
            st.tuples(st.integers(0, num_lines - 1), st.sampled_from(STATES)),
            max_size=4,
        ),
        max_size=15,
    ))
    config = DslamConfig(num_line_cards=num_cards, ports_per_card=ports_per_card, switch_size=k)
    return config, dict(enumerate(ports)), policy, initial, syncs


@settings(max_examples=300, deadline=None)
@given(kswitch_histories())
def test_repacking_changed_kswitches_matches_packing_every_switch(history):
    config, line_ports, policy, initial, syncs = history
    every_switch = Dslam(config, line_ports)
    changed_only = Dslam(config, line_ports)
    lines = list(line_ports)
    state = list(initial)
    # The first sync sees no change at all, yet must still pack every
    # switch: the normalised initial wiring need not be a packed one.
    for transitions in [[]] + syncs:
        changed = set()
        for line, code in transitions:
            # A line that changes and changes back still counts as changed,
            # as it does in GatewayArray.changed_ids.
            if state[line] != code:
                state[line] = code
                changed.add(line)
        line_active = {line: state[line] != STATE_SLEEPING for line in lines}
        if policy == "idealized":
            movable = set(lines)
        elif policy == "not-active":
            movable = {line for line in lines if state[line] != STATE_ACTIVE}
        else:
            movable = None
        every_switch.rewire(line_active, movable)
        changed_only.rewire(line_active, movable, changed)
        assert changed_only.line_port == every_switch.line_port


def test_first_kswitch_rewire_packs_every_switch():
    # Every gateway active under idealised transitions: nothing changed, but
    # the normalised wiring puts each switch's lines on its lowest cards, so
    # the first rewire must move them to the highest.
    config = DslamConfig(num_line_cards=4, ports_per_card=3, switch_size=4)
    lines = range(10)
    dslam = Dslam(config, {line: line for line in lines})
    twin = Dslam(config, {line: line for line in lines})
    initial = dict(dslam.line_port)
    everything = {line: True for line in lines}
    dslam.rewire(everything, set(lines), changed=())
    twin.rewire(everything, set(lines))
    assert dslam.line_port == twin.line_port != initial
    # Later rewires with no change leave the packed wiring alone.
    dslam.rewire(everything, set(lines), changed=())
    assert dslam.line_port == twin.line_port

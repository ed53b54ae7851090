"""Tests for the k-switch model (Eq. 2) and packing machinery."""

import itertools
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro.access.dslam import Dslam
from repro.access.kswitch import (
    KSwitchBank,
    card_sleep_probability_exact,
    card_sleep_probability_paper,
    expected_sleeping_cards,
    full_switch_sleeping_cards,
    simulate_card_sleep_probability,
)
from repro.topology.scenario import DslamConfig


def test_eq2_matches_paper_shape():
    # Fig. 5 (middle): m=24, p=0.5 — the first card of an 8-switch batch has a
    # high probability of sleeping, later cards a rapidly decreasing one.
    first = card_sleep_probability_paper(1, 8, 24, 0.5)
    fourth = card_sleep_probability_paper(4, 8, 24, 0.5)
    assert first > 0.85
    assert fourth < first


def test_probability_decreases_with_card_index():
    for fn in (card_sleep_probability_paper, card_sleep_probability_exact):
        values = [fn(l, 8, 24, 0.25) for l in range(1, 9)]
        assert all(a >= b - 1e-12 for a, b in zip(values, values[1:]))


def test_probability_increases_when_lines_less_active():
    for fn in (card_sleep_probability_paper, card_sleep_probability_exact):
        assert fn(2, 4, 24, 0.25) >= fn(2, 4, 24, 0.5)


def test_exact_first_card_formula():
    # Card 1 sleeps iff every switch has at least one inactive line.
    k, m, p = 4, 12, 0.5
    expected = (1.0 - p ** k) ** m
    assert card_sleep_probability_exact(1, k, m, p) == pytest.approx(expected)
    assert card_sleep_probability_paper(1, k, m, p) == pytest.approx(expected)


def _brute_force_sleep_probabilities(k, m, p):
    """Per-card sleep probability of a bank of ``m`` independent k-switches.

    Enumerates all 2^k activity patterns of one k-switch, packs each with
    the DSLAM code the kernel runs (one port per card, every line movable)
    and adds the pattern's probability to every card left without an
    active line; a card sleeps only if it does so on all ``m`` switches.
    """
    one_switch = [0.0] * k
    for pattern in itertools.product((False, True), repeat=k):
        dslam = Dslam(DslamConfig(num_line_cards=k, ports_per_card=1, switch_size=k),
                      {line: line for line in range(k)})
        dslam.rewire(dict(enumerate(pattern)), movable=set(range(k)))
        busy = dslam.online_cards(line for line in range(k) if pattern[line])
        active = sum(pattern)
        weight = p ** active * (1.0 - p) ** (k - active)
        for card in range(k):
            if card not in busy:
                one_switch[card] += weight
    return [probability ** m for probability in one_switch]


@pytest.mark.parametrize("k", range(1, 9))
def test_exact_matches_brute_force_enumeration(k):
    for p in (0.0, 0.05, 0.3, 0.5, 0.77, 1.0):
        for m in (1, 5, 24):
            expected = _brute_force_sleep_probabilities(k, m, p)
            for l in range(1, k + 1):
                assert card_sleep_probability_exact(l, k, m, p) == pytest.approx(
                    expected[l - 1], rel=0.0, abs=1e-12
                ), (l, k, m, p)


def test_sweep_import_does_not_load_scipy():
    # scipy is not a declared dependency, and importing it would slow
    # down and bloat every sweep process start-up.
    src = str(Path(__file__).resolve().parents[1] / "src")
    script = "import sys, repro.sweep; print('scipy' in sys.modules)"
    output = subprocess.run(
        [sys.executable, "-c", script],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True, check=True,
    )
    assert output.stdout.strip() == "False"


def _run_fresh(script):
    src = str(Path(__file__).resolve().parents[1] / "src")
    return subprocess.run(
        [sys.executable, "-c", script],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True, check=True,
    ).stdout.strip()


def test_sweep_import_loads_only_what_a_sweep_runs():
    # Figures, crosstalk, the testbed, the regression gate and the figures'
    # ADSL model and trace analysis are imported as submodules by the
    # commands that use them, never by a sweep or by the CLI module that
    # `repro-access sweep` loads.
    script = (
        "import sys\n"
        "unwanted = ('networkx', 'repro.analysis.figures', 'repro.crosstalk',\n"
        "            'repro.testbed', 'repro.regress', 'repro.traces.adsl',\n"
        "            'repro.traces.analysis')\n"
        "from repro.sweep import ResultStore, SweepConfig, render_sweep, run_sweep\n"
        "print(sorted(name for name in unwanted if name in sys.modules))\n"
        "import repro.cli\n"
        "print(sorted(name for name in unwanted if name in sys.modules))\n"
    )
    assert _run_fresh(script).splitlines() == ["[]", "[]"]


def test_repro_runs_without_networkx():
    # numpy is the only declared runtime dependency; the overlap generator
    # must not need networkx even where it is installed.
    script = (
        "import sys\n"
        "sys.modules['networkx'] = None\n"
        "import repro\n"
        "from repro.sweep.catalog import family\n"
        "scenario = family('smoke').expand()[0].build()\n"
        "print(scenario.topology.gateway_graph is not None)\n"
    )
    assert _run_fresh(script) == "True"


def test_degenerate_probabilities():
    assert card_sleep_probability_exact(1, 4, 24, 0.0) == pytest.approx(1.0)
    assert card_sleep_probability_exact(1, 4, 24, 1.0) == pytest.approx(0.0)


def test_parameter_validation():
    with pytest.raises(ValueError):
        card_sleep_probability_paper(0, 4, 24, 0.5)
    with pytest.raises(ValueError):
        card_sleep_probability_paper(5, 4, 24, 0.5)
    with pytest.raises(ValueError):
        card_sleep_probability_exact(1, 4, 24, 1.5)


def test_monte_carlo_matches_exact():
    k, m, p = 4, 12, 0.4
    simulated = simulate_card_sleep_probability(k, m, p, trials=3000, seed=1)
    for l in range(1, k + 1):
        assert simulated[l - 1] == pytest.approx(card_sleep_probability_exact(l, k, m, p), abs=0.05)


def test_expected_sleeping_cards_bounds():
    expected = expected_sleeping_cards(4, 24, 0.25)
    assert 0.0 <= expected <= 4.0


def test_full_switch_formula():
    assert full_switch_sleeping_cards(48, 12, 13) == 2
    assert full_switch_sleeping_cards(48, 12, 0) == 4
    with pytest.raises(ValueError):
        full_switch_sleeping_cards(48, 12, 49)


@given(
    k=st.integers(min_value=1, max_value=8),
    m=st.integers(min_value=1, max_value=30),
    p=st.floats(min_value=0.0, max_value=1.0),
)
@settings(max_examples=60, deadline=None)
def test_exact_probability_is_a_probability(k, m, p):
    for l in range(1, k + 1):
        value = card_sleep_probability_exact(l, k, m, p)
        assert 0.0 <= value <= 1.0


@given(
    k=st.integers(min_value=2, max_value=6),
    m=st.integers(min_value=1, max_value=12),
    p=st.floats(min_value=0.05, max_value=0.95),
)
@settings(max_examples=40, deadline=None)
def test_bigger_switches_never_hurt_the_first_card(k, m, p):
    smaller = card_sleep_probability_exact(1, k, m, p)
    bigger = card_sleep_probability_exact(1, k + 1, m, p)
    assert bigger >= smaller - 1e-12


def test_kswitch_bank_validation():
    with pytest.raises(ValueError):
        KSwitchBank(k=0, num_ports_per_card=1, line_ids=[])
    with pytest.raises(ValueError):
        KSwitchBank(k=1, num_ports_per_card=1, line_ids=[0, 1])
    with pytest.raises(ValueError):
        KSwitchBank(k=2, num_ports_per_card=2, line_ids=[0, 0])

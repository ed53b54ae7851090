"""Property tests: the max-min allocators match the seed's, bit for bit.

The seed's iterative water-filling is kept frozen as
:func:`reference_max_min_allocation` in the preserved seed kernel and used
as the oracle on randomized capacity/cap sets, including adversarial shapes
(duplicates, zeros, huge spreads).  The public :func:`max_min_allocation`
and the scheduler's shortcut paths must agree with it exactly, because
flow service derives from them.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.flows.scheduler import FlowScheduler, _water_fill, max_min_allocation
from repro.simulation.reference_kernel import reference_max_min_allocation


@given(
    capacity=st.floats(min_value=0.0, max_value=1e9),
    caps=st.lists(st.floats(min_value=0.0, max_value=1e9), min_size=0, max_size=24),
)
@settings(max_examples=300, deadline=None)
def test_vectorized_matches_reference(capacity, caps):
    assert max_min_allocation(capacity, caps) == reference_max_min_allocation(capacity, caps)


@given(
    capacity=st.floats(min_value=0.0, max_value=1e9),
    caps=st.lists(st.floats(min_value=0.0, max_value=1e9), min_size=0, max_size=16),
)
@settings(max_examples=300, deadline=None)
def test_water_fill_bit_identical_to_reference(capacity, caps):
    """The scheduler's validation-free loop replays the reference exactly."""
    assert _water_fill(capacity, caps) == reference_max_min_allocation(capacity, caps)


@given(
    capacity=st.floats(min_value=1e3, max_value=1e8),
    cap_value=st.floats(min_value=1e3, max_value=1e8),
    n=st.integers(min_value=2, max_value=12),
)
@settings(max_examples=200, deadline=None)
def test_equal_caps_match_reference_exactly(capacity, cap_value, n):
    caps = [cap_value] * n
    assert _water_fill(capacity, caps) == reference_max_min_allocation(capacity, caps)


def test_duplicate_caps_and_ties():
    caps = [2e6, 2e6, 2e6, 8e6, 8e6]
    allocation = max_min_allocation(6e6, caps)
    assert allocation == reference_max_min_allocation(6e6, caps)
    assert sum(allocation) == pytest.approx(6e6, rel=1e-9)


def test_validation_preserved():
    with pytest.raises(ValueError):
        max_min_allocation(-1.0, [1.0])
    with pytest.raises(ValueError):
        max_min_allocation(1.0, [-1.0])
    assert max_min_allocation(5.0, []) == []


def test_scheduler_rates_match_reference_water_filling():
    """Rates cached by the scheduler equal a fresh reference allocation."""
    from repro.flows.flow import RATE_BPS
    from repro.traces.models import Flow

    scheduler = FlowScheduler(backhaul_bps=6e6)
    caps = [1e6, 12e6, 6e6, 6e6]
    flows = [
        scheduler.admit(
            Flow(flow_id=i, client_id=i, start_time=0.0, size_bytes=10_000_000),
            gateway_id=4,
            wireless_capacity_bps=cap,
        )
        for i, cap in enumerate(caps)
    ]
    scheduler.ensure_rates({4})
    expected = reference_max_min_allocation(6e6, caps)
    assert [f[RATE_BPS] for f in flows] == expected

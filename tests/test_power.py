"""Tests for the power and energy models."""

import pytest

from repro.power.energy import EnergyAccumulator, EnergyBreakdown
from repro.power.models import (
    DEFAULT_POWER_MODEL,
    AccessNetworkPowerModel,
    DevicePower,
    PowerState,
    world_wide_savings_twh,
)


def test_device_power_states():
    device = DevicePower(active_w=9.0, sleep_w=0.5)
    assert device.power_in(PowerState.ACTIVE) == 9.0
    assert device.power_in(PowerState.SLEEPING) == 0.5
    assert device.power_in(PowerState.WAKING) == 9.0  # defaults to active power


def test_device_power_custom_wake():
    device = DevicePower(active_w=9.0, wake_w=12.0)
    assert device.power_in(PowerState.WAKING) == 12.0
    assert device.waking_w == 12.0


def test_waking_power_follows_an_overridden_active_power():
    """The documented ``wake_w=None`` fallback: devices boot at *their own*
    full power, so overriding ``active_w`` moves the waking draw with it."""
    device = DevicePower(active_w=5.0)
    assert device.wake_w is None
    assert device.waking_w == 5.0
    assert device.power_in(PowerState.WAKING) == 5.0
    # An explicit wake rail decouples the two again.
    explicit = DevicePower(active_w=5.0, wake_w=6.5)
    assert explicit.waking_w == 6.5
    # Zero is a valid explicit wake power, distinct from the fallback.
    free_boot = DevicePower(active_w=5.0, wake_w=0.0)
    assert free_boot.waking_w == 0.0
    assert free_boot.power_in(PowerState.WAKING) == 0.0


def test_device_power_validation():
    with pytest.raises(ValueError):
        DevicePower(active_w=-1.0)
    with pytest.raises(ValueError):
        DevicePower(active_w=1.0, sleep_w=-0.1)
    with pytest.raises(ValueError):
        DevicePower(active_w=1.0, wake_w=-0.5)


def test_power_state_is_online():
    assert PowerState.ACTIVE.is_online
    assert not PowerState.SLEEPING.is_online
    assert not PowerState.WAKING.is_online


def test_default_model_uses_paper_figures():
    model = DEFAULT_POWER_MODEL
    assert model.gateway.active_w == pytest.approx(9.0)
    assert model.isp_modem.active_w == pytest.approx(1.0)
    assert model.line_card.active_w == pytest.approx(98.0)
    assert model.dslam_shelf.active_w == pytest.approx(21.0)


def test_no_sleep_power_matches_components():
    model = AccessNetworkPowerModel()
    power = model.no_sleep_power(num_gateways=40, num_line_cards=4)
    assert power == pytest.approx(40 * 9 + 40 * 1 + 4 * 98 + 21)


def test_power_counts_must_be_non_negative():
    model = AccessNetworkPowerModel()
    with pytest.raises(ValueError):
        model.user_side_power(-1)
    with pytest.raises(ValueError):
        model.isp_side_power(-1, 0)


def test_energy_accumulator_totals():
    acc = EnergyAccumulator(interval_seconds=60.0)
    acc.charge("gateway", 9.0, 120.0)
    acc.charge("line_card", 98.0, 60.0)
    breakdown = acc.breakdown()
    assert breakdown.per_category_j["gateway"] == pytest.approx(1080.0)
    assert breakdown.total_j == pytest.approx(1080.0 + 5880.0)
    assert breakdown.user_side_j == pytest.approx(1080.0)
    assert breakdown.isp_side_j == pytest.approx(5880.0)


def test_energy_accumulator_validation():
    with pytest.raises(ValueError):
        EnergyAccumulator(interval_seconds=0.0)
    acc = EnergyAccumulator()
    with pytest.raises(ValueError):
        acc.charge("gateway", -1.0, 10.0)


def test_energy_timeseries_bins():
    acc = EnergyAccumulator(interval_seconds=60.0)
    acc.charge_at("gateway", 10.0, start_s=30.0, duration_s=60.0)
    times, values = acc.timeseries()
    assert times == [0.0, 60.0]
    assert values[0] == pytest.approx(300.0)
    assert values[1] == pytest.approx(300.0)


def test_energy_timeseries_category_filter():
    acc = EnergyAccumulator(interval_seconds=60.0)
    acc.charge_at("gateway", 10.0, 0.0, 60.0)
    acc.charge_at("line_card", 98.0, 0.0, 60.0)
    _times, isp = acc.timeseries(categories=("line_card",))
    assert isp[0] == pytest.approx(98.0 * 60.0)


def test_energy_horizon_clamps_series():
    acc = EnergyAccumulator(interval_seconds=60.0, horizon=60.0)
    acc.charge_at("gateway", 10.0, 30.0, 120.0)
    times, _values = acc.timeseries()
    assert max(times) == 0.0


def test_breakdown_savings_and_addition():
    baseline = EnergyBreakdown({"gateway": 1000.0, "line_card": 1000.0})
    run = EnergyBreakdown({"gateway": 400.0, "line_card": 600.0})
    merged = baseline + run
    assert merged.total_j == pytest.approx(3000.0)
    assert baseline.total_kwh == pytest.approx(2000.0 / 3.6e6)


def test_per_generation_gateway_categories_count_as_user_side():
    breakdown = EnergyBreakdown({
        "gateway:legacy-9w": 600.0,
        "gateway:efficient-5w": 300.0,
        "isp_modem": 50.0,
    })
    assert breakdown.user_side_j == pytest.approx(900.0)
    assert breakdown.isp_side_j == pytest.approx(50.0)
    assert breakdown.total_j == pytest.approx(950.0)


def test_world_wide_savings_matches_paper_magnitude():
    # The paper extrapolates ~33 TWh/year for a 66 % saving.
    estimate = world_wide_savings_twh(0.66)
    assert 20.0 <= estimate <= 45.0
    assert world_wide_savings_twh(0.0) == 0.0
    with pytest.raises(ValueError):
        world_wide_savings_twh(1.5)

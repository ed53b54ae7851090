"""Tests for gateway generations and fleet profiles."""

import pytest

from repro.fleet.profile import (
    FLEETS,
    GENERATIONS,
    FleetProfile,
    GatewayGeneration,
    HOMOGENEOUS,
    fleet,
)
from repro.power.models import DEFAULT_POWER_MODEL, DevicePower


def test_registry_has_the_documented_entries():
    for expected in ["legacy-9w", "efficient-5w", "deepsleep-7w"]:
        assert expected in GENERATIONS
    for expected in ["homogeneous", "legacy-efficient", "tri-mix", "efficient-only"]:
        assert expected in FLEETS


def test_legacy_generation_matches_the_paper_device():
    legacy = GENERATIONS["legacy-9w"]
    assert legacy.power == DEFAULT_POWER_MODEL.gateway
    # Boot at full power: the wake_w=None fallback resolves to active_w.
    assert legacy.power.wake_w is None
    assert legacy.power.waking_w == 9.0
    assert legacy.wake_up_time_s is None


def test_homogeneous_profile_is_uniform_in_the_default_device():
    assert HOMOGENEOUS.is_uniform(DEFAULT_POWER_MODEL.gateway)
    assert not HOMOGENEOUS.is_uniform(DevicePower(active_w=5.0))
    assert not FLEETS["legacy-efficient"].is_uniform(DEFAULT_POWER_MODEL.gateway)
    # Uniform in a *different* device is still not the homogeneous default,
    # and a generation-specific wake duration also forces the per-gateway
    # path even against its own power triple.
    assert not FLEETS["efficient-only"].is_uniform(DEFAULT_POWER_MODEL.gateway)
    assert not FLEETS["efficient-only"].is_uniform(GENERATIONS["efficient-5w"].power)


def test_counts_follow_weights_exactly():
    profile = FLEETS["tri-mix"]  # 0.4 / 0.4 / 0.2
    assert profile.counts(20) == [8, 8, 4]
    assert sum(profile.counts(7)) == 7
    fifty = FLEETS["legacy-efficient"]
    assert fifty.counts(9) in ([5, 4], [4, 5])
    assert sum(fifty.counts(9)) == 9


def test_assignment_is_deterministic_and_matches_counts():
    profile = FLEETS["tri-mix"]
    first = profile.assignment(20)
    second = profile.assignment(20)
    assert first == second
    for index, count in enumerate(profile.counts(20)):
        assert first.count(index) == count
    # A different seed scrambles positions, not counts.
    other = FleetProfile(name="x", mix=profile.mix, assignment_seed=99).assignment(20)
    assert sorted(other) == sorted(first)


def test_device_arrays_resolve_wake_fallbacks():
    profile = FLEETS["legacy-efficient"]
    assignment, active_w, sleep_w, wake_w, wake_time = profile.device_arrays(
        10, default_wake_time_s=60.0
    )
    for g in range(10):
        generation = profile.generations[assignment[g]]
        assert active_w[g] == generation.power.active_w
        assert wake_w[g] == generation.power.waking_w
        if generation.name == "legacy-9w":
            assert wake_w[g] == 9.0  # active_w fallback, no explicit wake rail
            assert wake_time[g] == 60.0  # scheme default
        else:
            assert wake_w[g] == 6.0
            assert wake_time[g] == 30.0  # generation override


def test_canonical_inlines_physics_not_names():
    renamed = GatewayGeneration(
        name="legacy-rebranded", power=DevicePower(active_w=9.0, sleep_w=0.0)
    )
    GENERATIONS[renamed.name] = renamed
    try:
        relabelled = FleetProfile(name="other", mix=(("legacy-rebranded", 1.0),))
        assert relabelled.canonical() == HOMOGENEOUS.canonical()
    finally:
        del GENERATIONS[renamed.name]
    assert FLEETS["efficient-only"].canonical() != HOMOGENEOUS.canonical()
    # Weights are normalised, so 1:1 and 2:2 describe the same mix.
    doubled = FleetProfile(
        name="x", mix=(("legacy-9w", 2.0), ("efficient-5w", 2.0)), assignment_seed=11
    )
    assert doubled.canonical() == FLEETS["legacy-efficient"].canonical()


def test_profile_validation():
    with pytest.raises(ValueError, match="unknown gateway generation"):
        FleetProfile(mix=(("nope", 1.0),))
    with pytest.raises(ValueError, match="must be positive"):
        FleetProfile(mix=(("legacy-9w", 0.0),))
    with pytest.raises(ValueError, match="twice"):
        FleetProfile(mix=(("legacy-9w", 0.5), ("legacy-9w", 0.5)))
    with pytest.raises(ValueError, match="empty"):
        FleetProfile(mix=())
    with pytest.raises(KeyError, match="unknown fleet profile"):
        fleet("does-not-exist")


def test_generation_validation():
    with pytest.raises(ValueError, match="name"):
        GatewayGeneration(name="", power=DevicePower(active_w=1.0))
    with pytest.raises(ValueError, match="wake_up_time_s"):
        GatewayGeneration(name="x", power=DevicePower(active_w=1.0), wake_up_time_s=-1.0)

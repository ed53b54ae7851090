"""Tests for the scenario catalog: registry, grid expansion, spec building."""

from dataclasses import fields, replace

import pytest

from repro.sweep.catalog import (
    DIURNAL_PROFILES,
    FAMILIES,
    ScenarioFamily,
    ScenarioSpec,
    family,
    family_names,
    resolve_families,
)


def test_registry_has_the_documented_families():
    names = family_names()
    for expected in [
        "paper-default",
        "dense-urban",
        "sparse-rural",
        "diurnal-office",
        "flash-crowd",
        "backhaul-sensitivity",
        "smoke",
    ]:
        assert expected in names
    assert len(names) >= 6


def test_grid_expansion_counts_and_labels():
    assert len(family("paper-default").expand()) == 1
    assert len(family("dense-urban").expand()) == 2
    assert len(family("backhaul-sensitivity").expand()) == 6
    labels = [spec.label for fam in FAMILIES.values() for spec in fam.expand()]
    assert len(labels) == len(set(labels)), "scenario labels must be unique"


def test_expanded_specs_carry_grid_values():
    specs = family("backhaul-sensitivity").expand()
    assert sorted({spec.backhaul_scale for spec in specs}) == [0.5, 1.0, 2.0]
    assert sorted({spec.mean_networks_in_range for spec in specs}) == [3.0, 5.6]
    assert all("backhaul_scale=" in spec.label for spec in specs)


def test_smoke_spec_builds_a_consistent_scenario():
    spec = family("smoke").expand()[0]
    scenario = spec.build()
    assert scenario.num_clients == spec.num_clients
    assert scenario.num_gateways == spec.num_gateways
    assert scenario.trace.duration == spec.duration_s


def test_backhaul_scale_and_profile_reach_the_scenario():
    spec = ScenarioSpec(
        label="t", num_clients=6, num_gateways=3, duration_s=600.0, seed=3,
        backhaul_scale=0.5, profile="office",
    )
    scenario = spec.build()
    assert scenario.wireless.backhaul_bps == pytest.approx(3e6)


def test_diurnal_profiles_are_well_formed():
    for name, profile in DIURNAL_PROFILES.items():
        if profile is None:
            continue
        assert len(profile) == 24, name
        assert max(profile) == pytest.approx(1.0), name


def test_spec_validation():
    with pytest.raises(ValueError, match="profile"):
        ScenarioSpec(profile="nope")
    with pytest.raises(ValueError, match="backhaul_scale"):
        ScenarioSpec(backhaul_scale=0.0)
    with pytest.raises(ValueError, match="port"):
        ScenarioSpec(num_gateways=49)


def test_family_grid_validation():
    base = ScenarioSpec(num_clients=6, num_gateways=3)
    with pytest.raises(ValueError, match="not a ScenarioSpec field"):
        ScenarioFamily(name="x", description="", base=base, grid=(("nope", (1,)),))
    with pytest.raises(ValueError, match="no values"):
        ScenarioFamily(name="x", description="", base=base, grid=(("density", ()),))


def test_unknown_family_lookup():
    with pytest.raises(KeyError, match="known families"):
        family("does-not-exist")
    assert [f.name for f in resolve_families(["smoke"])] == ["smoke"]


def test_canonical_inlines_profile_weights_not_the_name():
    office = ScenarioSpec(label="x", num_clients=6, num_gateways=3, profile="office")
    canon = office.canonical()
    assert "profile" not in canon
    assert canon["diurnal_profile"] == list(DIURNAL_PROFILES["office"])
    default = ScenarioSpec(label="x", num_clients=6, num_gateways=3)
    assert default.canonical()["diurnal_profile"] is None
    assert canon != default.canonical()


def test_canonical_excludes_label_only():
    a = ScenarioSpec(label="one", num_clients=6, num_gateways=3)
    b = ScenarioSpec(label="two", num_clients=6, num_gateways=3)
    assert a.canonical() == b.canonical()
    c = ScenarioSpec(label="one", num_clients=7, num_gateways=3)
    assert a.canonical() != c.canonical()


# ----------------------------------------------------------------------
# Fleet and churn integration (PR 3)
# ----------------------------------------------------------------------
def test_fleet_and_churn_families_are_registered():
    assert len(family("mixed-fleet").expand()) == 3
    assert len(family("gateway-churn").expand()) == 3
    assert len(family("weekend-weekday").expand()) == 2
    assert {spec.fleet for spec in family("mixed-fleet").expand()} == {
        "legacy-efficient", "tri-mix", "efficient-only",
    }
    assert {spec.churn for spec in family("gateway-churn").expand()} == {
        "midday-dropout", "evening-expansion", "subscriber-churn",
    }


def test_default_fleet_and_churn_keep_pre_fleet_digests():
    """The homogeneous/static defaults are *omitted* from the canonical
    payload, so digests of every pre-existing scenario stay valid."""
    default = ScenarioSpec(label="x", num_clients=6, num_gateways=3)
    canon = default.canonical()
    assert "fleet" not in canon
    assert "churn" not in canon
    explicit = ScenarioSpec(
        label="x", num_clients=6, num_gateways=3, fleet="homogeneous", churn="none"
    )
    assert explicit.canonical() == canon


def test_fleet_and_churn_are_folded_into_the_digest():
    base = ScenarioSpec(label="x", num_clients=6, num_gateways=3)
    mixed = ScenarioSpec(
        label="x", num_clients=6, num_gateways=3, fleet="legacy-efficient"
    )
    churned = ScenarioSpec(
        label="x", num_clients=6, num_gateways=3, churn="midday-dropout"
    )
    assert "fleet" in mixed.canonical()
    assert "churn" in churned.canonical()
    canons = [base.canonical(), mixed.canonical(), churned.canonical()]
    assert len({str(c) for c in canons}) == 3
    # The churn payload is the materialised event list, so it depends on
    # the population the pattern expands against (a quarter of 12 gateways
    # fail instead of one of 3).
    bigger = ScenarioSpec(
        label="x", num_clients=6, num_gateways=12, churn="midday-dropout"
    )
    assert bigger.canonical()["churn"] != churned.canonical()["churn"]


def test_fleet_spec_builds_a_scenario_with_the_profile_attached():
    spec = family("mixed-fleet").expand()[0]
    scenario = spec.build()
    assert scenario.fleet is not None
    assert scenario.fleet.name == spec.fleet
    assert scenario.churn is None
    churn_spec = family("gateway-churn").expand()[0]
    churned = churn_spec.build()
    assert churned.churn is not None
    assert not churned.churn.is_empty


def test_unknown_fleet_or_churn_is_rejected():
    with pytest.raises(ValueError, match="fleet"):
        ScenarioSpec(fleet="nope")
    with pytest.raises(ValueError, match="churn"):
        ScenarioSpec(churn="nope")


#: A spec with flows in its one hour (most 12-client seeds have none).
KEY_BASE = ScenarioSpec(label="key", num_clients=12, num_gateways=4, duration_s=3600.0, seed=5)

#: Every ScenarioSpec field: an alternative value, and whether the
#: synthetic trace is generated from it.  A new field fails
#: ``test_trace_key_table_covers_every_spec_field`` until it is classified.
PERTURBED = {
    "label": ("other", False),
    "num_clients": (13, True),
    "num_gateways": (5, True),
    "duration_s": (7200.0, True),
    "seed": (6, True),
    "mean_networks_in_range": (3.0, False),
    "density": (2.5, False),
    "backhaul_scale": (0.5, False),
    "num_line_cards": (5, False),
    "ports_per_card": (6, False),
    "profile": ("office", True),
    "fleet": ("tri-mix", False),
    "churn": ("midday-dropout", False),
    "trace_overrides": ((("peak_online_probability", 0.3),), True),
}


def test_trace_key_table_covers_every_spec_field():
    assert set(PERTURBED) == {f.name for f in fields(ScenarioSpec)}


@pytest.mark.parametrize("name", sorted(PERTURBED))
def test_trace_key_holds_exactly_the_trace_inputs(name):
    value, feeds_trace = PERTURBED[name]
    perturbed = replace(KEY_BASE, **{name: value})
    assert getattr(perturbed, name) != getattr(KEY_BASE, name)
    if feeds_trace:
        assert perturbed.trace_key() != KEY_BASE.trace_key()
        return
    assert perturbed.trace_key() == KEY_BASE.trace_key()
    base_trace = KEY_BASE.build().trace
    assert base_trace.num_flows > 0
    fresh = perturbed.build()
    assert fresh.trace.all_flows() == base_trace.all_flows()
    assert fresh.trace.home_gateway == base_trace.home_gateway
    # A scenario built around the shared trace is the one a fresh build makes.
    shared = perturbed.build(trace=base_trace)
    assert shared.trace is base_trace
    assert shared.topology.reachable == fresh.topology.reachable
    assert shared.gateway_port == fresh.gateway_port
    assert (shared.wireless, shared.dslam, shared.fleet, shared.churn) == (
        fresh.wireless, fresh.dslam, fresh.fleet, fresh.churn
    )

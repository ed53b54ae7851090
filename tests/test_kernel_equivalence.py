"""Equivalence of the vectorized kernel against the preserved seed kernel.

The event-aware kernel in :mod:`repro.simulation.simulator` is designed to
reproduce the seed per-step trajectory exactly — same transitions at the
same grid instants, same RNG draws, bit-identical flow service — so these
tests compare it against the verbatim seed copy in
:mod:`repro.simulation.reference_kernel`: on a small but busy scenario,
requiring exact agreement on the device-state samples and tight float
agreement on the aggregate metrics, and at paper scale (the full day at
the paper protocol's 1 s step, where the Sec. 5 savings are claimed) for
every named scheme.
"""

import numpy as np
import pytest

from repro.analysis import figures
from repro.core.schemes import (
    all_schemes,
    bh2_kswitch,
    bh2_no_backup_kswitch,
    no_sleep,
    optimal,
    soi,
    soi_full_switch,
    soi_kswitch,
)
from repro.simulation.reference_kernel import run_scheme_reference
from repro.simulation.runner import run_scheme
from repro.topology.scenario import build_default_scenario

#: Flat diurnal profile keeps the 2-hour scenario busy enough to exercise
#: wakes, sleeps, hand-offs and waiting flows.
FLAT_PROFILE = tuple([1.0] * 24)


@pytest.fixture(scope="module")
def scenario():
    return build_default_scenario(
        seed=13,
        num_clients=60,
        num_gateways=12,
        duration=2 * 3600.0,
        diurnal_profile=FLAT_PROFILE,
        peak_online_probability=0.4,
    )


def assert_served_counters_match(reference, result, name):
    """The kernel's served-demand counters equal the seed's eager records."""
    records = reference.flow_records
    assert result.served_flows == len(records), (
        f"{name}: served_flows {result.served_flows} vs {len(records)} seed records"
    )
    seed_bytes = sum(record.size_bytes for record in records)
    assert result.served_bytes == seed_bytes, (
        f"{name}: served_bytes {result.served_bytes} vs {seed_bytes} in seed records"
    )


SCHEMES = [
    no_sleep(),
    soi(),
    soi_kswitch(),
    soi_full_switch(),
    bh2_kswitch(),
    bh2_no_backup_kswitch(),
    optimal(),
]


@pytest.mark.parametrize("scheme", SCHEMES, ids=[s.name for s in SCHEMES])
def test_kernel_matches_seed_trajectory(scenario, scheme):
    reference = run_scheme_reference(scenario, scheme, seed=3, step_s=2.0)
    result = run_scheme(scenario, scheme, seed=3, step_s=2.0)
    assert result.steps_taken == reference.steps_taken

    # Device-state samples must agree exactly: any diverging decision or
    # transition timing shows up here as an integer difference.
    assert np.array_equal(reference.sample_times, result.sample_times)
    assert np.array_equal(reference.online_gateways, result.online_gateways)
    assert np.array_equal(reference.waking_gateways, result.waking_gateways)
    assert np.array_equal(reference.online_line_cards, result.online_line_cards)

    # Aggregate metrics agree to float tolerance (energy binning sums may
    # differ in the last ulp).
    assert result.mean_savings() == pytest.approx(reference.mean_savings(), abs=1e-9)
    assert result.mean_online_gateways() == pytest.approx(
        reference.mean_online_gateways(), abs=1e-9
    )
    assert result.energy.total_j == pytest.approx(reference.energy.total_j, rel=1e-12)

    assert_served_counters_match(reference, result, scheme.name)

    # Flow completion records: same flows, same completion instants.
    reference_records = {r.flow_id: r for r in reference.flow_records}
    new_records = {r.flow_id: r for r in result.flow_records}
    assert reference_records.keys() == new_records.keys()
    for flow_id, reference_record in reference_records.items():
        record = new_records[flow_id]
        assert record.gateway_id == reference_record.gateway_id
        assert record.completion_time == pytest.approx(
            reference_record.completion_time, abs=1e-9
        )


def test_kernel_matches_seed_with_until(scenario):
    reference = run_scheme_reference(scenario, soi(), seed=1, step_s=2.0, until=900.0)
    result = run_scheme(scenario, soi(), seed=1, step_s=2.0, until=900.0)
    assert result.steps_taken == reference.steps_taken
    assert result.duration == reference.duration
    assert np.array_equal(reference.online_gateways, result.online_gateways)
    assert result.mean_savings() == pytest.approx(reference.mean_savings(), abs=1e-9)


def test_kernel_matches_seed_at_finer_step(scenario):
    """The kernel must take the seed kernel's steps at step 1 s too."""
    for scheme in (soi(), bh2_kswitch()):
        reference = run_scheme_reference(
            scenario, scheme, seed=7, step_s=1.0, until=1800.0
        )
        result = run_scheme(scenario, scheme, seed=7, step_s=1.0, until=1800.0)
        assert result.steps_taken == reference.steps_taken
        assert np.array_equal(reference.online_gateways, result.online_gateways)
        assert result.mean_savings() == pytest.approx(reference.mean_savings(), abs=1e-9)


@pytest.fixture(scope="module")
def paper_scenario():
    """Half the paper's population over the full day at the paper's 1 s step."""
    scale = figures.EvaluationScale(
        num_clients=136, num_gateways=20, duration_s=24 * 3600.0, step_s=1.0, seed=2011
    )
    return figures.build_scenario(scale)


def test_kernel_matches_seed_at_paper_scale(paper_scenario):
    for name, scheme in all_schemes().items():
        reference = run_scheme_reference(paper_scenario, scheme, seed=1, step_s=1.0)
        result = run_scheme(paper_scenario, scheme, seed=1, step_s=1.0)
        assert result.steps_taken == reference.steps_taken, name
        savings_delta = abs(reference.mean_savings() - result.mean_savings())
        online_delta = abs(
            reference.mean_online_gateways() - result.mean_online_gateways()
        )
        assert savings_delta < 1e-6, f"{name}: mean_savings moved by {savings_delta}"
        assert online_delta < 1e-6, f"{name}: mean_online_gateways moved by {online_delta}"
        assert np.array_equal(reference.online_gateways, result.online_gateways), name
        assert_served_counters_match(reference, result, name)


def test_kernel_matches_seed_metrics_on_every_scheme():
    scale = figures.EvaluationScale(
        num_clients=40, num_gateways=8, duration_s=3600.0, step_s=2.0, seed=11
    )
    scenario = figures.build_scenario(scale)
    for name, scheme in all_schemes().items():
        reference = run_scheme_reference(scenario, scheme, seed=2, step_s=2.0)
        result = run_scheme(scenario, scheme, seed=2, step_s=2.0)
        assert abs(reference.mean_savings() - result.mean_savings()) < 1e-6, name

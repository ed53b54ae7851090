"""Calibration and determinism tests for the synthetic trace generator."""

import hashlib
from dataclasses import replace

import numpy as np
import pytest

from repro.sweep.catalog import family
from repro.traces.analysis import peak_hour_gap_histogram, utilization_timeseries
from repro.traces.models import TraceStats
from repro.traces.synthetic import (
    DEFAULT_DIURNAL_PROFILE,
    SyntheticTraceConfig,
    SyntheticTraceGenerator,
    generate_crawdad_like_trace,
)


@pytest.fixture(scope="module")
def small_trace():
    return generate_crawdad_like_trace(seed=3, num_clients=80, num_gateways=12, duration=24 * 3600.0)


def test_config_validation():
    with pytest.raises(ValueError):
        SyntheticTraceConfig(num_clients=0)
    with pytest.raises(ValueError):
        SyntheticTraceConfig(diurnal_profile=(1.0,) * 10)
    with pytest.raises(ValueError):
        SyntheticTraceConfig(peak_online_probability=0.0)


def test_profile_at_wraps_by_hour():
    config = SyntheticTraceConfig()
    assert config.profile_at(0.0) == DEFAULT_DIURNAL_PROFILE[0]
    assert config.profile_at(15.5 * 3600) == DEFAULT_DIURNAL_PROFILE[15]
    assert config.profile_at(25 * 3600) == DEFAULT_DIURNAL_PROFILE[1]


def test_trace_has_requested_population(small_trace):
    assert small_trace.num_clients == 80
    assert small_trace.num_gateways == 12
    assert small_trace.duration == 24 * 3600.0


def test_home_gateways_are_uniformly_spread(small_trace):
    counts = np.bincount(list(small_trace.home_gateway.values()), minlength=12)
    assert counts.max() - counts.min() <= 1


def test_same_seed_same_trace():
    first = generate_crawdad_like_trace(seed=11, num_clients=20, num_gateways=5, duration=7200.0)
    second = generate_crawdad_like_trace(seed=11, num_clients=20, num_gateways=5, duration=7200.0)
    assert first.num_flows == second.num_flows
    assert [f.start_time for f in first.all_flows()] == [f.start_time for f in second.all_flows()]


def test_different_seed_different_trace():
    first = generate_crawdad_like_trace(seed=1, num_clients=20, num_gateways=5, duration=7200.0)
    second = generate_crawdad_like_trace(seed=2, num_clients=20, num_gateways=5, duration=7200.0)
    assert [f.start_time for f in first.all_flows()] != [f.start_time for f in second.all_flows()]


def test_flow_ids_unique(small_trace):
    ids = [f.flow_id for f in small_trace.all_flows()]
    assert len(ids) == len(set(ids))


def test_flows_within_duration(small_trace):
    assert all(0 <= f.start_time < small_trace.duration for f in small_trace.all_flows())


def test_peak_hour_is_in_the_afternoon(small_trace):
    stats = TraceStats.from_trace(small_trace)
    assert 12 <= stats.peak_hour <= 19


def test_average_utilization_matches_paper_band(small_trace):
    stats = TraceStats.from_trace(small_trace, backhaul_bps=6e6)
    # The paper reports a daily average of roughly 1-3 % and a peak below 10 %.
    assert 0.005 <= stats.mean_utilization <= 0.06
    assert stats.peak_hour_utilization <= 0.15


def test_night_is_much_quieter_than_peak(small_trace):
    series = utilization_timeseries(small_trace)["utilization_percent"]
    night = np.mean(series[2:6])
    peak = series.max()
    assert night < 0.2 * peak


def test_continuous_light_traffic_at_peak(small_trace):
    histogram = peak_hour_gap_histogram(small_trace)
    # Fig. 4: the overwhelming majority of the idle time at the peak hour is
    # made of short gaps (the paper measures roughly 82 %).
    assert histogram["fraction_below_60s"] > 0.6


def test_traffic_mix_contains_all_classes(small_trace):
    kinds = {f.kind for f in small_trace.all_flows()}
    assert {"keepalive", "web"} <= kinds


def test_generator_respects_max_flow_size():
    config = SyntheticTraceConfig(num_clients=30, num_gateways=5, duration=6 * 3600.0,
                                  seed=5, max_flow_bytes=2_000_000)
    trace = SyntheticTraceGenerator(config).generate()
    assert all(f.size_bytes <= 2_000_000 for f in trace.all_flows())


def test_batched_uniform_draws_equal_scalar_draws():
    # The generator takes a client's per-minute draws in one batch; that
    # is exact only because of this.
    batched, scalar = np.random.default_rng(2011), np.random.default_rng(2011)
    draws = batched.random(1440).tolist()
    assert draws == [scalar.random() for _ in range(1440)]
    assert batched.bit_generator.state == scalar.bit_generator.state
    assert batched.exponential(28.0) == scalar.exponential(28.0)


def trace_digest(trace):
    """sha256 of every flow, in client and flow order, and the home gateways."""
    digest = hashlib.sha256()
    for client in trace.clients.values():
        for flow in client.flows:
            digest.update(repr((
                flow.flow_id, flow.client_id, flow.start_time.hex(), flow.size_bytes, flow.kind,
            )).encode())
    digest.update(repr(list(trace.home_gateway.items())).encode())
    return digest.hexdigest()


#: Spec, flow count and :func:`trace_digest` of traces recorded from the
#: generator that made one scalar draw per client-minute and built every
#: flow twice.  The generator must keep producing them bit for bit.
PINNED_TRACES = {
    "smoke-watt": (
        family("smoke-watt").base, 266,
        "430af0041c2e32c406fa08895f3c4b0a9ee03883bebd063e70a882ba4759939a",
    ),
    "correlated-outage": (
        family("correlated-outage").base, 309,
        "46fe4dd42c5738fac73195ab79f67a755f095dd218c6cee5b2a6683b4c87d460",
    ),
    "mixed-fleet": (
        family("mixed-fleet").base, 112382,
        "86b9a853ed9fb97a640d797bb5940c6868d087d9afabe32b7e68c6bfc330ca8c",
    ),
    "sparse-rural-small": (
        replace(family("sparse-rural").base, num_clients=16, num_gateways=4), 15452,
        "7ec841031f94b32b96ebd210d2243732633689188be13bb6aa7e1520d51b7b73",
    ),
    "weekend-small": (
        replace(family("weekend-weekday").base, profile="weekend", num_clients=16,
                num_gateways=4), 16856,
        "82b3f12c05861b32a3e62c5baec09bb2e05665a17b4d2e82c9df34a92477996e",
    ),
}


@pytest.mark.parametrize("name", sorted(PINNED_TRACES))
def test_generator_output_is_pinned(name):
    spec, flows, expected = PINNED_TRACES[name]
    trace = spec.build().trace
    assert trace.num_flows == flows
    assert trace_digest(trace) == expected

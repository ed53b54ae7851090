"""The run seed moves only the schemes that say they read it.

``SchemeConfig.uses_run_seed`` is what lets the sweep engine run a scheme
once per spec and reuse that trajectory for the scheme's later
repetitions.  This law checks the predicate on generated scenarios, in
both directions: a seed-free scheme gives the same run under any two run
seeds and leaves the kernel's seeded generator untouched, and a scheme
that claims the seed really draws from it.

The traces start at midnight, where the generator's default online
probability leaves most short traces without a single flow, so the
strategy also raises that probability for some examples, which then
carry hundreds of flows through every scheme.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.core.schemes import all_schemes
from repro.fleet.churn import CHURN_PATTERNS
from repro.fleet.profile import FLEETS
from repro.obs.metrics import kernel_snapshot
from repro.simulation.simulator import AccessNetworkSimulator
from repro.sweep.catalog import DIURNAL_PROFILES, ScenarioSpec
from repro.sweep.engine import run_metrics

SCHEMES = list(all_schemes().values())
SEED_FREE = [scheme for scheme in SCHEMES if not scheme.uses_run_seed]
SEEDED = [scheme for scheme in SCHEMES if scheme.uses_run_seed]

SERIES = (
    "sample_times",
    "online_gateways",
    "waking_gateways",
    "online_modems",
    "online_line_cards",
    "energy_series_times",
    "energy_series_total_j",
    "energy_series_isp_j",
)

specs = st.builds(
    ScenarioSpec,
    label=st.just("generated"),
    num_clients=st.integers(min_value=4, max_value=16),
    num_gateways=st.integers(min_value=2, max_value=6),
    duration_s=st.integers(min_value=900, max_value=3600).map(float),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    density=st.one_of(st.none(), st.floats(min_value=1.5, max_value=3.0)),
    profile=st.sampled_from(sorted(DIURNAL_PROFILES)),
    fleet=st.sampled_from(sorted(FLEETS)),
    churn=st.sampled_from(sorted(CHURN_PATTERNS)),
    trace_overrides=st.one_of(
        st.just(()),
        st.floats(min_value=0.9, max_value=1.0).map(
            lambda p: (("peak_online_probability", p),)
        ),
    ),
)


run_seeds = st.integers(min_value=0, max_value=2**32 - 1)


def _fresh_state(seed):
    return np.random.default_rng(seed).bit_generator.state


def _run(scenario, scheme, seed, step_s, sample_interval_s):
    simulator = AccessNetworkSimulator(
        scenario, scheme, step_s=step_s, sample_interval_s=sample_interval_s, seed=seed
    )
    return simulator, simulator.run()


@given(
    spec=specs,
    seeds=st.tuples(run_seeds, st.integers(min_value=1, max_value=2**32 - 1)).map(
        lambda pair: (pair[0], (pair[0] + pair[1]) % 2**32)
    ),
    step_s=st.sampled_from([1.0, 2.0, 5.0]),
    sample_interval_s=st.sampled_from([30.0, 60.0]),
)
@settings(max_examples=100, deadline=None)
def test_only_schemes_that_use_the_run_seed_draw_from_it(
    spec, seeds, step_s, sample_interval_s
):
    assert SEED_FREE and SEEDED
    scenario = spec.build()
    first_seed, second_seed = seeds
    for scheme in SEED_FREE:
        runs = [
            _run(scenario, scheme, seed, step_s, sample_interval_s) for seed in seeds
        ]
        (sim_a, a), (sim_b, b) = runs
        cell = (spec, scheme.name, seeds)
        assert run_metrics(a, spec.duration_s) == run_metrics(b, spec.duration_s), cell
        for name in SERIES:
            assert np.array_equal(getattr(a, name), getattr(b, name)), (cell, name)
        for name in ("served_flows", "served_bytes", "dropped_flows"):
            assert getattr(a, name) == getattr(b, name), (cell, name)
        assert kernel_snapshot(a) == kernel_snapshot(b), cell
        for simulator, seed in ((sim_a, first_seed), (sim_b, second_seed)):
            assert simulator._rng.bit_generator.state == _fresh_state(seed), cell
    for scheme in SEEDED:
        simulator, _result = _run(scenario, scheme, first_seed, step_s, sample_interval_s)
        state = simulator._rng.bit_generator.state
        assert state != _fresh_state(first_seed), (spec, scheme.name)

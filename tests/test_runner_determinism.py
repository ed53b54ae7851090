"""Determinism of the experiment layer, and one kernel run per trajectory.

The seed derived each run's RNG seed from ``hash(scheme.name)``, which
varies with ``PYTHONHASHSEED`` — "identical" runs differed across
processes.  The runner now derives seeds with ``zlib.crc32``
(:func:`repro.simulation.runner.scheme_run_seed`), so repeated runs and
processes agree exactly.  Only BH2 reads that seed, so the runner runs
every other scheme once per comparison and fills its repetitions with
that one result.
"""

import hashlib
import json
import zlib

import numpy as np
import pytest

import repro.simulation.runner as runner_module
from repro.analysis import figures
from repro.core.schemes import (
    bh2_full_switch,
    bh2_kswitch,
    bh2_no_backup_kswitch,
    no_sleep,
    optimal,
    soi,
    soi_full_switch,
    soi_kswitch,
)
from repro.simulation.runner import ExperimentRunner, run_scheme, scheme_run_seed
from repro.topology.scenario import build_default_scenario

FLAT_PROFILE = tuple([1.0] * 24)

#: Every sample and energy series of a result.
SERIES = (
    "sample_times", "online_gateways", "waking_gateways", "online_modems",
    "online_line_cards", "energy_series_times", "energy_series_total_j",
    "energy_series_isp_j",
)


@pytest.fixture(scope="module")
def scenario():
    return build_default_scenario(
        seed=5,
        num_clients=40,
        num_gateways=8,
        duration=1800.0,
        diurnal_profile=FLAT_PROFILE,
        peak_online_probability=0.5,
    )


@pytest.fixture
def kernel_runs(monkeypatch):
    """The (scheme name, seed) of every kernel run the runner makes."""
    calls = []

    def spy(scenario, scheme, seed=0, **kwargs):
        calls.append((scheme.name, seed))
        return run_scheme(scenario, scheme, seed=seed, **kwargs)

    monkeypatch.setattr(runner_module, "run_scheme", spy)
    return calls


def test_scheme_run_seed_is_hash_seed_independent():
    # crc32 is a pure function of the bytes — no interpreter state involved.
    assert scheme_run_seed(0, 0, "SoI") == zlib.crc32(b"SoI") % 997
    assert scheme_run_seed(10, 2, "BH2+k-switch") == 10 + 2000 + zlib.crc32(b"BH2+k-switch") % 997
    assert scheme_run_seed(0, 0, "a") != scheme_run_seed(0, 0, "b")


def test_repeated_runs_are_identical(scenario):
    schemes = [no_sleep(), soi(), bh2_kswitch()]
    first = ExperimentRunner(scenario, runs_per_scheme=2, step_s=2.0, base_seed=3).run(schemes)
    second = ExperimentRunner(scenario, runs_per_scheme=2, step_s=2.0, base_seed=3).run(schemes)
    for scheme in schemes:
        assert first.mean_savings(scheme.name) == second.mean_savings(scheme.name)
        assert first.mean_online_gateways(scheme.name) == second.mean_online_gateways(scheme.name)
        for run_a, run_b in zip(first.results[scheme.name], second.results[scheme.name]):
            assert np.array_equal(run_a.online_gateways, run_b.online_gateways)


def test_runner_runs_each_seed_free_scheme_once(scenario, kernel_runs):
    base_seed = 7
    cases = [
        ([no_sleep(), soi(), bh2_kswitch(), optimal()], 6),
        ([soi(), optimal()], 3),
        ([no_sleep()], 1),
    ]
    for schemes, expected_runs in cases:
        kernel_runs.clear()
        comparison = ExperimentRunner(
            scenario, runs_per_scheme=3, step_s=2.0, base_seed=base_seed
        ).run(schemes)
        assert len(kernel_runs) == expected_runs, kernel_runs
        assert comparison.scheme_names == [scheme.name for scheme in schemes]
        for scheme in schemes:
            runs = comparison.results[scheme.name]
            assert len(runs) == 3
            for index, run in enumerate(runs):
                direct = run_scheme(
                    scenario, scheme, seed=scheme_run_seed(base_seed, index, scheme.name),
                    step_s=2.0,
                )
                for name in SERIES:
                    assert np.array_equal(getattr(run, name), getattr(direct, name)), (
                        scheme.name, index, name)
                assert run.mean_savings() == direct.mean_savings()
                assert run.flow_durations() == direct.flow_durations()
        if any(scheme.sleep_enabled for scheme in schemes):
            # One no-sleep trajectory serves as the Fig. 9a baseline.
            expected = run_scheme(scenario, no_sleep(), step_s=2.0).flow_durations()
            assert expected
            assert comparison.baseline_durations == expected
            if "no-sleep" in comparison.scheme_names:
                assert comparison.baseline_durations == comparison.first("no-sleep").flow_durations()
        else:
            assert comparison.baseline_durations == {}


#: sha256 of each figure's JSON.  Running every repetition of every scheme
#: plus a separate no-sleep baseline (25 kernel runs) gives the same digests.
FIGURE_DIGESTS = {
    "figure6": "46dc3057247929ccbd20a69940d49f22c6464b969f9c319b4eec2cd321b35c38",
    "figure7": "067cf5fd1171bbcc4f5bbd5b2bec8058a827501155c8efdf76a1f49df26f6ec3",
    "figure8": "d2cd6170bbb0222d7c662f4fb699834ba957624a25856ef6ab7fb19f51e0025c",
    "figure9a": "8b7c5299db4efb48cc50622487756916b00b244dec6df6f21538477388bf54bf",
    "figure9b": "6cabf35357fd962bc3b02cf43ab14abaa01e266ebeae02426edbf0054f10ac14",
    "table_online_cards": "5c7b9b274336ed51503201ef6d296f8af08bb531f0ab1a9e56791ae14ca52285",
    "summary_savings": "e58e4ff13eb08f8bbf545ffb00b26017d90202a19aafc66f220c22d528bb5920",
}


def test_comparison_figures_are_pinned(kernel_runs):
    """The benchmark schemes' figures, bit for bit, from 12 kernel runs."""
    schemes = [
        no_sleep(), soi(), soi_kswitch(), soi_full_switch(),
        bh2_kswitch(), bh2_no_backup_kswitch(), bh2_full_switch(), optimal(),
    ]
    scale = figures.EvaluationScale(
        num_clients=68, num_gateways=10, duration_s=6 * 3600.0,
        runs_per_scheme=3, step_s=2.0, seed=2011,
    )
    comparison = figures.run_evaluation(scale=scale, schemes=schemes)
    # Three BH2 schemes run each of their 3 repetitions; no-sleep (the
    # Fig. 9a baseline) and Optimal run once, and the three SoI switch
    # models share one pass.
    assert len(kernel_runs) == 3 * 3 + 3
    digests = {
        name: hashlib.sha256(
            json.dumps(getattr(figures, name)(comparison), sort_keys=True).encode()
        ).hexdigest()
        for name in FIGURE_DIGESTS
    }
    assert digests == FIGURE_DIGESTS

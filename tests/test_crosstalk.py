"""Tests for the DSL crosstalk substrate (Sec. 6)."""

import numpy as np
import pytest

from repro.crosstalk.attenuation import AttenuationSynthesizer
from repro.crosstalk.bitloading import PROFILE_30M, PROFILE_62M, LineProfile, VdslBundle
from repro.crosstalk.experiments import (
    CrosstalkExperiment,
    run_figure14_experiment,
    sample_loop_lengths,
)
from repro.crosstalk.fext import ChannelModel, FextModel, NoiseModel


def test_attenuation_grows_with_length_and_frequency():
    channel = ChannelModel()
    freq = np.array([1e6, 4e6, 10e6])
    short = channel.attenuation_db(freq, 100.0)
    long = channel.attenuation_db(freq, 600.0)
    assert np.all(long > short)
    assert short[0] < short[1] < short[2]


def test_channel_gain_below_one():
    channel = ChannelModel()
    gain = channel.gain(np.array([5e6]), 300.0)
    assert 0 < gain[0] < 1


def test_fext_zero_without_disturbers():
    fext = FextModel()
    coupling = fext.coupling_gain(np.array([5e6]), 600.0, num_disturbers=0)
    assert coupling[0] == 0.0


def test_fext_grows_with_disturbers_frequency_and_length():
    fext = FextModel()
    freq = np.array([5e6])
    few = fext.coupling_gain(freq, 600.0, 5)[0]
    many = fext.coupling_gain(freq, 600.0, 20)[0]
    assert many > few
    low_f = fext.coupling_gain(np.array([1e6]), 600.0, 5)[0]
    assert few > low_f
    short = fext.coupling_gain(freq, 100.0, 5)[0]
    assert few > short


def test_fext_validation():
    fext = FextModel()
    with pytest.raises(ValueError):
        fext.coupling_gain(np.array([1e6]), -1.0, 1)
    with pytest.raises(ValueError):
        fext.coupling_gain(np.array([1e6]), 1.0, -1)


def test_noise_floor_is_flat():
    noise = NoiseModel()
    psd = noise.psd_w_hz(np.array([1e6, 5e6]))
    assert psd[0] == psd[1] > 0


def test_line_profile_validation_and_grid():
    with pytest.raises(ValueError):
        LineProfile(name="bad", plan_rate_bps=0.0)
    profile = PROFILE_62M
    grid = profile.tone_grid()
    assert grid[0] >= profile.start_frequency_hz
    assert grid[-1] < profile.max_frequency_hz


def test_bundle_rate_increases_when_disturbers_leave():
    bundle = VdslBundle([600.0] * 8, PROFILE_62M)
    all_active = set(range(8))
    rate_full = bundle.line_rate_bps(0, all_active)
    rate_half = bundle.line_rate_bps(0, {0, 1, 2, 3})
    rate_alone = bundle.line_rate_bps(0, {0})
    assert rate_full < rate_half < rate_alone


def test_shorter_lines_are_faster():
    # Use the uncapped 30 Mbps profile so the plan cap does not mask the effect.
    bundle = VdslBundle([100.0, 600.0], PROFILE_30M)
    rates = bundle.rates_bps()
    assert rates[0] > rates[1]


def test_inactive_line_has_no_rate():
    bundle = VdslBundle([600.0] * 4, PROFILE_62M)
    with pytest.raises(ValueError):
        bundle.line_rate_bps(0, {1, 2})


def test_plan_rate_cap_enforced():
    capped = LineProfile(name="capped", plan_rate_bps=20e6, cap_at_plan_rate=True)
    bundle = VdslBundle([100.0], capped)
    assert bundle.line_rate_bps(0, {0}) <= 20e6


def test_calibration_matches_paper_figures():
    """The headline Fig. 14 magnitudes: baseline ~43 Mbps at 600 m for the
    62 Mbps profile, ~1 %/line speedup, ~12-15 % at half off, ~25 % at 75 % off."""
    bundle = VdslBundle([600.0] * 24, PROFILE_62M)
    baseline = bundle.rates_bps()
    baseline_avg = np.mean(list(baseline.values())) / 1e6
    assert 38.0 <= baseline_avg <= 50.0
    speedup_half = bundle.average_speedup_percent(set(range(12)), baseline)
    assert 8.0 <= speedup_half <= 20.0
    speedup_75 = bundle.average_speedup_percent(set(range(6)), baseline)
    assert 18.0 <= speedup_75 <= 35.0
    assert speedup_75 > speedup_half


def test_30mbps_profile_baseline_near_plan():
    bundle = VdslBundle([600.0] * 24, PROFILE_30M)
    baseline_avg = np.mean(list(bundle.rates_bps().values())) / 1e6
    assert 25.0 <= baseline_avg <= 33.0


def test_sample_loop_lengths_range():
    lengths = sample_loop_lengths(24, seed=1)
    assert len(lengths) == 24
    assert all(50.0 <= l <= 600.0 for l in lengths)
    with pytest.raises(ValueError):
        sample_loop_lengths(0)


def test_experiment_speedup_curve():
    experiment = CrosstalkExperiment(PROFILE_62M, [600.0] * 12, num_sequences=2, seed=1)
    curve = experiment.run("test", inactive_counts=(0, 4, 8))
    assert curve.inactive_counts == [0, 4, 8]
    assert curve.mean_speedup_percent[0] == pytest.approx(0.0, abs=1e-9)
    assert curve.mean_speedup_percent[1] > 0
    assert curve.mean_speedup_percent[2] > curve.mean_speedup_percent[1]
    assert curve.speedup_at(8) == curve.mean_speedup_percent[2]
    with pytest.raises(ValueError):
        curve.speedup_at(5)


def test_run_figure14_has_four_configurations():
    curves = run_figure14_experiment(num_sequences=1, seed=0)
    assert len(curves) == 4
    for curve in curves.values():
        assert len(curve.mean_speedup_percent) == len(curve.inactive_counts)


def test_attenuation_synthesizer_cards_look_alike():
    synthesizer = AttenuationSynthesizer(seed=3)
    summaries = synthesizer.summaries()
    assert len(summaries) == 14
    assert all(len(s.samples_db) == 72 for s in summaries)
    assert synthesizer.means_are_similar()
    stds = [s.std_db for s in summaries]
    # The appendix reports a standard deviation of roughly one mile (~23 dB).
    assert 15.0 <= np.mean(stds) <= 32.0


def test_attenuation_synthesizer_validation():
    with pytest.raises(ValueError):
        AttenuationSynthesizer(num_line_cards=0)

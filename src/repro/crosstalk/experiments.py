"""The crosstalk speedup experiments of Fig. 14.

Methodology (Sec. 6.2 of the paper): a 24-modem bundle, five random orders
of line activation, measuring the average per-line rate as the number of
active lines varies; two loop-length setups (all lines at 600 m, and
lengths drawn from a realistic 50-600 m distribution) and two service
profiles (30 Mbps and 62 Mbps).  The result is the average per-line speedup
relative to the all-lines-active baseline, as a function of the number of
*inactive* lines.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.crosstalk.bitloading import LineProfile, PROFILE_30M, PROFILE_62M, VdslBundle
from repro.crosstalk.fext import ChannelModel, FextModel, NoiseModel

#: Numbers of inactive lines at which Fig. 14 reports the speedup.
FIGURE14_INACTIVE_COUNTS: Tuple[int, ...] = (0, 2, 4, 6, 8, 10, 12, 16, 20)


def sample_loop_lengths(
    num_lines: int,
    min_length_m: float = 50.0,
    max_length_m: float = 600.0,
    seed: int = 0,
) -> List[float]:
    """Loop lengths matching the telco distribution used in the paper.

    The paper states lengths were "chosen to match a real distribution of
    lengths between 50 and 600 m given to us by a large telco"; we use a
    triangular distribution skewed toward longer loops, which reproduces the
    fact that most customers sit several hundred metres from the cabinet.
    """
    if num_lines <= 0:
        raise ValueError("num_lines must be positive")
    if not 0 < min_length_m < max_length_m:
        raise ValueError("invalid length range")
    rng = np.random.default_rng(seed)
    mode = min_length_m + 0.7 * (max_length_m - min_length_m)
    lengths = rng.triangular(min_length_m, mode, max_length_m, size=num_lines)
    return [float(l) for l in lengths]


@dataclass
class SpeedupCurve:
    """One Fig. 14 series: average speedup vs. number of inactive lines."""

    label: str
    baseline_rate_bps: float
    inactive_counts: List[int]
    mean_speedup_percent: List[float]
    std_speedup_percent: List[float]

    def speedup_at(self, inactive: int) -> float:
        """Mean speedup (percent) with ``inactive`` lines powered off."""
        if inactive not in self.inactive_counts:
            raise ValueError(f"{inactive} inactive lines was not measured")
        return self.mean_speedup_percent[self.inactive_counts.index(inactive)]


class CrosstalkExperiment:
    """Runs the Fig. 14 methodology over one bundle configuration."""

    def __init__(
        self,
        profile: LineProfile,
        lengths_m: Sequence[float],
        num_sequences: int = 5,
        repetitions: int = 2,
        seed: int = 0,
        channel: Optional[ChannelModel] = None,
        noise: Optional[NoiseModel] = None,
        fext: Optional[FextModel] = None,
    ):
        if num_sequences <= 0 or repetitions <= 0:
            raise ValueError("num_sequences and repetitions must be positive")
        self.bundle = VdslBundle(
            lengths_m=lengths_m, profile=profile, channel=channel, noise=noise, fext=fext
        )
        self.num_sequences = num_sequences
        self.repetitions = repetitions
        self.seed = seed

    def run(self, label: str, inactive_counts: Sequence[int] = FIGURE14_INACTIVE_COUNTS) -> SpeedupCurve:
        """Measure the speedup curve."""
        n = self.bundle.num_lines
        bad = [c for c in inactive_counts if not 0 <= c < n]
        if bad:
            raise ValueError(f"inactive counts out of range: {bad}")
        rng = np.random.default_rng(self.seed)
        all_lines = set(range(n))
        baseline = self.bundle.rates_bps(all_lines)
        baseline_avg = float(np.mean(list(baseline.values())))

        per_count_samples: Dict[int, List[float]] = {c: [] for c in inactive_counts}
        for _sequence in range(self.num_sequences):
            order = list(rng.permutation(n))
            for _repetition in range(self.repetitions):
                for count in inactive_counts:
                    inactive = set(order[:count])
                    active = all_lines - inactive
                    per_count_samples[count].append(
                        self.bundle.average_speedup_percent(active, baseline)
                    )
        counts = list(inactive_counts)
        return SpeedupCurve(
            label=label,
            baseline_rate_bps=baseline_avg,
            inactive_counts=counts,
            mean_speedup_percent=[float(np.mean(per_count_samples[c])) for c in counts],
            std_speedup_percent=[float(np.std(per_count_samples[c])) for c in counts],
        )


def run_figure14_experiment(
    num_lines: int = 24,
    seed: int = 0,
    num_sequences: int = 5,
    fext: Optional[FextModel] = None,
) -> Dict[str, SpeedupCurve]:
    """All four Fig. 14 series keyed by their legend label."""
    mixed_lengths = sample_loop_lengths(num_lines, seed=seed)
    fixed_lengths = [600.0] * num_lines
    configurations = [
        ("profile 62 Mbps; loop lengths 50-600 m", PROFILE_62M, mixed_lengths),
        ("profile 62 Mbps; fixed loop length 600 m", PROFILE_62M, fixed_lengths),
        ("profile 30 Mbps; loop lengths 50-600 m", PROFILE_30M, mixed_lengths),
        ("profile 30 Mbps; fixed loop length 600 m", PROFILE_30M, fixed_lengths),
    ]
    curves = {}
    for label, profile, lengths in configurations:
        experiment = CrosstalkExperiment(
            profile=profile,
            lengths_m=lengths,
            num_sequences=num_sequences,
            seed=seed,
            fext=fext,
        )
        curves[label] = experiment.run(label)
    return curves

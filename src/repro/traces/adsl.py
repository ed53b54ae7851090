"""Diurnal utilisation model of a residential ADSL population.

Fig. 2 of the paper plots the daily average and median utilisation of 10 000
ADSL subscribers of a large commercial ISP (1-20 Mbps downlink, 256 Kbps to
1 Mbps uplink): the average stays below 9 % even at the peak hour while the
median stays below ~0.05 %, i.e. a tiny number of heavy users dominate the
aggregate.

We model the population with a heavy-tailed (log-normal) per-user rate whose
scale follows a residential diurnal profile (evening peak).  The model is
enough to regenerate Fig. 2 and to sanity-check the utilisation levels used
elsewhere in the evaluation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

import numpy as np

#: Residential diurnal profile (fraction of the daily peak, per hour of day).
#: Residential traffic peaks in the evening (20:00-23:00) and bottoms out in
#: the early morning, in contrast to the office-hours shape of Fig. 3.
RESIDENTIAL_DIURNAL_PROFILE: Sequence[float] = (
    0.55, 0.40, 0.28, 0.20, 0.16, 0.15, 0.17, 0.22,
    0.30, 0.38, 0.45, 0.52, 0.58, 0.60, 0.62, 0.65,
    0.70, 0.76, 0.84, 0.92, 0.98, 1.00, 0.92, 0.75,
)


def diurnal_profile(hour: int, profile: Sequence[float] = RESIDENTIAL_DIURNAL_PROFILE) -> float:
    """Diurnal weight for an hour of day (0-23)."""
    return float(profile[hour % 24])


@dataclass
class AdslPopulationConfig:
    """Parameters of the synthetic ADSL subscriber population."""

    num_subscribers: int = 10_000
    seed: int = 7

    #: Downlink plan speeds (bps) and the fraction of subscribers on each.
    downlink_plans_bps: Sequence[float] = (1e6, 3e6, 6e6, 10e6, 20e6)
    downlink_plan_weights: Sequence[float] = (0.10, 0.20, 0.40, 0.20, 0.10)

    #: Log-normal parameters of a subscriber's *peak-hour* average downlink
    #: utilisation (dimensionless fraction of the plan speed).
    peak_util_log_mean: float = np.log(0.012)
    peak_util_log_sigma: float = 2.1

    #: Ratio of uplink to downlink utilisation (uplink is lighter).
    uplink_fraction: float = 0.45

    diurnal: Sequence[float] = field(default_factory=lambda: tuple(RESIDENTIAL_DIURNAL_PROFILE))

    def __post_init__(self) -> None:
        if self.num_subscribers <= 0:
            raise ValueError("num_subscribers must be positive")
        if len(self.downlink_plans_bps) != len(self.downlink_plan_weights):
            raise ValueError("plan speeds and weights must align")
        if abs(sum(self.downlink_plan_weights) - 1.0) > 1e-6:
            raise ValueError("plan weights must sum to 1")
        if len(self.diurnal) != 24:
            raise ValueError("diurnal profile needs 24 entries")


class AdslUtilizationModel:
    """Synthesises per-hour utilisation samples of an ADSL population."""

    def __init__(self, config: AdslPopulationConfig | None = None):
        self.config = config or AdslPopulationConfig()
        rng = np.random.default_rng(self.config.seed)
        cfg = self.config
        plan_idx = rng.choice(len(cfg.downlink_plans_bps), size=cfg.num_subscribers,
                              p=np.asarray(cfg.downlink_plan_weights, dtype=float))
        self.downlink_plan = np.asarray(cfg.downlink_plans_bps, dtype=float)[plan_idx]
        # Per-subscriber peak-hour utilisation; heavy tailed, capped at 100 %.
        peak_util = rng.lognormal(cfg.peak_util_log_mean, cfg.peak_util_log_sigma,
                                  size=cfg.num_subscribers)
        self.peak_utilization = np.minimum(peak_util, 1.0)
        # Small per-subscriber, per-hour noise so the median is not degenerate.
        self._noise_rng = np.random.default_rng(cfg.seed + 1)

    # ------------------------------------------------------------------
    def hourly_utilization(self, hour: int, direction: str = "downlink") -> np.ndarray:
        """Per-subscriber utilisation (fraction of plan speed) at ``hour``."""
        cfg = self.config
        weight = diurnal_profile(hour, cfg.diurnal)
        base = self.peak_utilization * weight
        if direction == "uplink":
            base = base * cfg.uplink_fraction
        elif direction != "downlink":
            raise ValueError(f"unknown direction {direction!r}")
        noise = self._noise_rng.lognormal(mean=0.0, sigma=0.35, size=base.shape)
        return np.minimum(base * noise, 1.0)

    def daily_curves(self, direction: str = "downlink") -> Tuple[List[float], List[float]]:
        """Average and median utilisation (percent) for each hour of the day.

        This is the data behind Fig. 2.
        """
        averages: List[float] = []
        medians: List[float] = []
        for hour in range(24):
            util = self.hourly_utilization(hour, direction)
            averages.append(float(np.mean(util) * 100.0))
            medians.append(float(np.median(util) * 100.0))
        return averages, medians

    def average_downlink_speed_bps(self) -> float:
        """Mean plan downlink speed of the population (paper: ~6 Mbps).

        Nothing in the program reads it: the tests use it to pin the ~6 Mbps
        mean plan of Sec. 2 that the Fig. 2 population is drawn from.
        """
        return float(np.mean(self.downlink_plan))

    def figure2_data(self) -> Dict[str, List[float]]:
        """All four series of Fig. 2 keyed by name."""
        avg_down, med_down = self.daily_curves("downlink")
        avg_up, med_up = self.daily_curves("uplink")
        return {
            "hours": list(range(24)),
            "avg_downlink_percent": avg_down,
            "avg_uplink_percent": avg_up,
            "median_downlink_percent": med_down,
            "median_uplink_percent": med_up,
        }

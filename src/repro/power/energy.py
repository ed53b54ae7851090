"""Energy accounting over a simulation run."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Tuple

#: Category labels used by the simulator when charging energy.  With a
#: heterogeneous fleet the user side is split per gateway generation into
#: ``gateway:<generation>`` categories instead of the single ``gateway``.
USER_SIDE_CATEGORIES = ("gateway",)
USER_SIDE_PREFIX = "gateway:"
ISP_SIDE_CATEGORIES = ("isp_modem", "line_card", "dslam_shelf")


@dataclass
class EnergyBreakdown:
    """Energy totals (joules) split by device category."""

    per_category_j: Dict[str, float] = field(default_factory=dict)

    @property
    def total_j(self) -> float:
        """Total energy across all categories."""
        return sum(self.per_category_j.values())

    @property
    def user_side_j(self) -> float:
        """Energy charged to user-side devices (including the per-generation
        ``gateway:<generation>`` categories of heterogeneous fleets).

        The program reports categories and totals; the tests read the two
        sides to check how a run's energy splits.
        """
        return sum(
            joules
            for category, joules in self.per_category_j.items()
            if category in USER_SIDE_CATEGORIES or category.startswith(USER_SIDE_PREFIX)
        )

    @property
    def isp_side_j(self) -> float:
        """Energy charged to ISP-side devices (read by the tests, like the
        user side)."""
        return sum(self.per_category_j.get(c, 0.0) for c in ISP_SIDE_CATEGORIES)

    @property
    def total_kwh(self) -> float:
        """Total energy in kWh."""
        return self.total_j / 3.6e6

    def __add__(self, other: "EnergyBreakdown") -> "EnergyBreakdown":
        merged = dict(self.per_category_j)
        for category, joules in other.per_category_j.items():
            merged[category] = merged.get(category, 0.0) + joules
        return EnergyBreakdown(per_category_j=merged)


class EnergyAccumulator:
    """Integrates power over time, per device category.

    The simulator calls :meth:`charge` whenever a device spends ``duration``
    seconds drawing ``power_w`` watts.  A parallel per-interval time series
    can be recorded with :meth:`charge_at` for the time-resolved figures
    (Fig. 6 and Fig. 8).
    """

    def __init__(self, interval_seconds: float = 60.0, horizon: float | None = None):
        if interval_seconds <= 0:
            raise ValueError("interval_seconds must be positive")
        self.interval_seconds = interval_seconds
        self.horizon = horizon
        self._totals: Dict[str, float] = {}
        # time-bin index -> category -> joules
        self._series: Dict[int, Dict[str, float]] = {}

    # ------------------------------------------------------------------
    def charge(self, category: str, power_w: float, duration_s: float) -> None:
        """Charge ``power_w * duration_s`` joules to ``category``."""
        if power_w < 0 or duration_s < 0:
            raise ValueError("power and duration must be non-negative")
        if duration_s == 0 or power_w == 0:
            return
        self._totals[category] = self._totals.get(category, 0.0) + power_w * duration_s

    def charge_at(self, category: str, power_w: float, start_s: float, duration_s: float) -> None:
        """Charge energy and attribute it to time bins starting at ``start_s``."""
        if start_s < 0:
            raise ValueError("start_s must be non-negative")
        if power_w < 0 or duration_s < 0:
            raise ValueError("power and duration must be non-negative")
        if duration_s == 0 or power_w == 0:
            return
        self.charge(category, power_w, duration_s)
        end_s = start_s + duration_s
        if self.horizon is not None:
            end_s = min(end_s, self.horizon)
        t = start_s
        while t < end_s:
            bin_index = int(t // self.interval_seconds)
            bin_end = (bin_index + 1) * self.interval_seconds
            chunk = min(end_s, bin_end) - t
            bin_bucket = self._series.setdefault(bin_index, {})
            bin_bucket[category] = bin_bucket.get(category, 0.0) + power_w * chunk
            t += chunk

    # ------------------------------------------------------------------
    def breakdown(self) -> EnergyBreakdown:
        """Energy totals accumulated so far."""
        return EnergyBreakdown(per_category_j=dict(self._totals))

    def timeseries(self, categories: Iterable[str] | None = None) -> Tuple[List[float], List[float]]:
        """Per-interval energy (joules), optionally restricted to categories.

        Returns ``(times, joules)`` where ``times`` are interval start times.
        """
        if not self._series:
            return [], []
        max_bin = max(self._series)
        times = [b * self.interval_seconds for b in range(max_bin + 1)]
        values = []
        wanted = set(categories) if categories is not None else None
        for b in range(max_bin + 1):
            bucket = self._series.get(b, {})
            if wanted is None:
                values.append(sum(bucket.values()))
            else:
                values.append(sum(j for c, j in bucket.items() if c in wanted))
        return times, values

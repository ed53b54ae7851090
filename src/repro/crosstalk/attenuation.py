"""Line attenuation distributions across DSLAM line cards (paper appendix).

The paper's appendix measures the attenuation of every port of two
production ADSL2+ DSLAMs (14 active line cards of 72 ports each) and finds
that every card sees essentially the same Gaussian distribution of
attenuations — i.e. geographically close customers are *not* clustered on
the same card — which justifies the random gateway↔port assignment used in
the evaluation.  This module synthesises equivalent data (Fig. 15); its
default spread is the appendix's ~1 mile, converted at the paper's
1 dB ≈ 70 m for ADSL2+.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

import numpy as np

#: The paper: "a difference of 1 dB in attenuation corresponds to a cable
#: length of roughly 230 feet (70 m)" for ADSL2+.
METERS_PER_DB = 70.0

#: One mile in metres; the appendix reports a standard deviation of ~1 mile.
MILE_M = 1609.34


@dataclass
class CardAttenuationSummary:
    """Distribution summary of the attenuations of one line card."""

    card_id: int
    mean_db: float
    std_db: float
    quartiles_db: List[float]
    samples_db: List[float] = field(repr=False, default_factory=list)


class AttenuationSynthesizer:
    """Synthesises the per-card attenuation distributions of Fig. 15."""

    def __init__(
        self,
        num_line_cards: int = 14,
        ports_per_card: int = 72,
        mean_attenuation_db: float = 40.0,
        std_attenuation_db: float = MILE_M / METERS_PER_DB,
        card_mean_jitter_db: float = 1.0,
        seed: int = 0,
    ):
        if num_line_cards <= 0 or ports_per_card <= 0:
            raise ValueError("num_line_cards and ports_per_card must be positive")
        if mean_attenuation_db <= 0 or std_attenuation_db <= 0:
            raise ValueError("attenuation parameters must be positive")
        self.num_line_cards = num_line_cards
        self.ports_per_card = ports_per_card
        self.mean_attenuation_db = mean_attenuation_db
        self.std_attenuation_db = std_attenuation_db
        self.card_mean_jitter_db = card_mean_jitter_db
        self.seed = seed

    def per_card_samples(self) -> Dict[int, np.ndarray]:
        """Attenuation samples (dB) for every port of every card."""
        rng = np.random.default_rng(self.seed)
        samples: Dict[int, np.ndarray] = {}
        for card in range(self.num_line_cards):
            # Cards share the same population; small jitter on the mean models
            # the "minimal variations in mean" the paper observes.
            card_mean = self.mean_attenuation_db + rng.normal(0.0, self.card_mean_jitter_db)
            values = rng.normal(card_mean, self.std_attenuation_db, size=self.ports_per_card)
            samples[card] = np.clip(values, 1.0, None)
        return samples

    def summaries(self) -> List[CardAttenuationSummary]:
        """Per-card distribution summaries (the data behind Fig. 15)."""
        summaries = []
        for card, values in self.per_card_samples().items():
            summaries.append(
                CardAttenuationSummary(
                    card_id=card,
                    mean_db=float(np.mean(values)),
                    std_db=float(np.std(values)),
                    quartiles_db=[float(q) for q in np.percentile(values, [25, 50, 75])],
                    samples_db=[float(v) for v in values],
                )
            )
        return summaries

    def means_are_similar(self, tolerance_db: float = 12.0) -> bool:
        """Whether card means differ by less than ``tolerance_db`` (the paper's point)."""
        means = [s.mean_db for s in self.summaries()]
        return (max(means) - min(means)) <= tolerance_db

"""Heterogeneous gateway fleets: device generations and their mix.

The paper's evaluation assumes every gateway is the same 9 W device.  Real
access networks deploy *mixed generations*: legacy boxes that draw full
power even while booting, newer efficient hardware with a real (non-zero
but small) standby draw, and multi-level deep-sleep devices in the spirit
of the PON power-state work, whose deep sleep is nearly free but whose
wake-up is long and power-hungry.

A :class:`GatewayGeneration` names one hardware generation — a
:class:`~repro.power.models.DevicePower` triple plus an optional
generation-specific wake-up duration.  A :class:`FleetProfile` describes a
whole neighbourhood's mix as ``(generation name, weight)`` pairs and turns
it into a deterministic per-gateway assignment; the default
:data:`HOMOGENEOUS` profile reproduces the paper's uniform 9 W fleet
exactly (the simulator keeps its bit-identical fast path for it).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.power.models import DevicePower


@dataclass(frozen=True)
class GatewayGeneration:
    """One gateway hardware generation.

    ``wake_up_time_s`` overrides the scheme's Sleep-on-Idle wake duration
    for devices of this generation (``None`` keeps the scheme default);
    deep-sleep devices trade a longer, hungrier boot for a near-zero
    standby draw.
    """

    name: str
    power: DevicePower
    wake_up_time_s: Optional[float] = None

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("generation needs a name")
        if self.wake_up_time_s is not None and self.wake_up_time_s < 0:
            raise ValueError("wake_up_time_s must be non-negative")

    def canonical(self) -> List[object]:
        """Digest-relevant physics of this generation (name excluded)."""
        return [
            self.power.active_w,
            self.power.sleep_w,
            self.power.wake_w,
            self.wake_up_time_s,
        ]


#: The generation registry, keyed by generation name.
GENERATIONS: Dict[str, GatewayGeneration] = {}


def register_generation(generation: GatewayGeneration) -> GatewayGeneration:
    """Register a generation under its name (overwriting any previous one)."""
    GENERATIONS[generation.name] = generation
    return generation


# The paper's measured device: 9 W flat, boots at full power (wake_w=None
# falls back to active_w — see DevicePower.waking_w).
register_generation(GatewayGeneration(
    name="legacy-9w",
    power=DevicePower(active_w=9.0, sleep_w=0.0),
))

# A newer integrated gateway: lower active draw, a real (small) standby
# draw, a slightly cheaper and much faster boot.
register_generation(GatewayGeneration(
    name="efficient-5w",
    power=DevicePower(active_w=5.0, sleep_w=0.3, wake_w=6.0),
    wake_up_time_s=30.0,
))

# Multi-level deep-sleep hardware (PON-style): deep sleep is nearly free,
# but the boot/re-synchronisation burst is long and draws above active.
register_generation(GatewayGeneration(
    name="deepsleep-7w",
    power=DevicePower(active_w=7.0, sleep_w=0.1, wake_w=8.5),
    wake_up_time_s=90.0,
))


@dataclass(frozen=True)
class FleetProfile:
    """A deterministic mix of gateway generations for one deployment.

    ``mix`` holds ``(generation name, weight)`` pairs; weights are
    normalised over their sum.  ``assignment_seed`` scrambles which
    concrete gateway gets which generation — the per-generation *counts*
    follow the weights by largest remainder, so the mix is exact rather
    than sampled.
    """

    name: str = "homogeneous"
    mix: Tuple[Tuple[str, float], ...] = (("legacy-9w", 1.0),)
    assignment_seed: int = 0

    def __post_init__(self) -> None:
        if not self.mix:
            raise ValueError("fleet mix cannot be empty")
        for generation_name, weight in self.mix:
            if generation_name not in GENERATIONS:
                raise ValueError(
                    f"unknown gateway generation {generation_name!r}; "
                    f"known: {', '.join(sorted(GENERATIONS))}"
                )
            if weight <= 0:
                raise ValueError(f"weight of {generation_name!r} must be positive")
        names = [generation_name for generation_name, _weight in self.mix]
        if len(set(names)) != len(names):
            raise ValueError("a generation appears twice in the mix")

    # ------------------------------------------------------------------
    @property
    def generations(self) -> List[GatewayGeneration]:
        """The generations of the mix, in declaration order."""
        return [GENERATIONS[name] for name, _weight in self.mix]

    @property
    def generation_names(self) -> List[str]:
        """Names of the mix's generations, in declaration order."""
        return [name for name, _weight in self.mix]

    def is_uniform(self, power: DevicePower) -> bool:
        """Whether every gateway is a ``power`` device with default wake time.

        The simulator uses this to keep its bit-identical homogeneous fast
        path: a profile that is uniform *in the power model's own gateway
        device* needs no per-gateway power arrays at all.
        """
        if len(self.mix) != 1:
            return False
        generation = GENERATIONS[self.mix[0][0]]
        return generation.power == power and generation.wake_up_time_s is None

    # ------------------------------------------------------------------
    def counts(self, num_gateways: int) -> List[int]:
        """Exact per-generation device counts by largest remainder."""
        if num_gateways <= 0:
            raise ValueError("num_gateways must be positive")
        total_weight = sum(weight for _name, weight in self.mix)
        quotas = [num_gateways * weight / total_weight for _name, weight in self.mix]
        counts = [int(q) for q in quotas]
        remainders = [q - c for q, c in zip(quotas, counts)]
        short = num_gateways - sum(counts)
        # Ties broken by declaration order (stable sort on -remainder).
        for index in sorted(range(len(counts)), key=lambda i: -remainders[i])[:short]:
            counts[index] += 1
        return counts

    def assignment(self, num_gateways: int) -> List[int]:
        """Generation index (into the mix) of every gateway, deterministic."""
        counts = self.counts(num_gateways)
        block = [
            index for index, count in enumerate(counts) for _ in range(count)
        ]
        order = np.random.default_rng(self.assignment_seed).permutation(num_gateways)
        assignment = [0] * num_gateways
        for position, generation_index in zip(order, block):
            assignment[int(position)] = generation_index
        return assignment

    def device_arrays(
        self, num_gateways: int, default_wake_time_s: float
    ) -> Tuple[List[int], List[float], List[float], List[float], List[float]]:
        """Per-gateway ``(generation, active_w, sleep_w, wake_w, wake_time_s)``.

        ``wake_w`` is the *effective* waking draw (the ``active_w`` fallback
        of :meth:`DevicePower.power_in` already applied); wake times fall
        back to ``default_wake_time_s`` for generations without an override.
        """
        generations = self.generations
        assignment = self.assignment(num_gateways)
        active_w, sleep_w, wake_w, wake_time = [], [], [], []
        for generation_index in assignment:
            generation = generations[generation_index]
            active_w.append(generation.power.active_w)
            sleep_w.append(generation.power.sleep_w)
            wake_w.append(generation.power.waking_w)
            wake_time.append(
                generation.wake_up_time_s
                if generation.wake_up_time_s is not None
                else default_wake_time_s
            )
        return assignment, active_w, sleep_w, wake_w, wake_time

    def canonical(self) -> Dict[str, object]:
        """Digest-relevant description: generation physics, weights, seed.

        Generation *names* are presentation; the physics (power triple and
        wake time) are inlined so renaming a generation preserves cached
        digests and editing its numbers invalidates them.
        """
        total_weight = sum(weight for _name, weight in self.mix)
        return {
            "mix": [
                [weight / total_weight] + GENERATIONS[name].canonical()
                for name, weight in self.mix
            ],
            "assignment_seed": self.assignment_seed,
        }


#: The paper's uniform fleet: every gateway is a legacy 9 W device.
HOMOGENEOUS = FleetProfile()

#: The fleet-profile registry, keyed by profile name.
FLEETS: Dict[str, FleetProfile] = {}


def register_fleet(profile: FleetProfile) -> FleetProfile:
    """Register a fleet profile under its name (overwriting any previous)."""
    FLEETS[profile.name] = profile
    return profile


register_fleet(HOMOGENEOUS)

register_fleet(FleetProfile(
    name="legacy-efficient",
    mix=(("legacy-9w", 0.5), ("efficient-5w", 0.5)),
    assignment_seed=11,
))

register_fleet(FleetProfile(
    name="tri-mix",
    mix=(("legacy-9w", 0.4), ("efficient-5w", 0.4), ("deepsleep-7w", 0.2)),
    assignment_seed=12,
))

# Uniform but *not* the default device: exercises the per-gateway power
# path with a single generation (useful as a fleet-upgrade endpoint).
register_fleet(FleetProfile(
    name="efficient-only",
    mix=(("efficient-5w", 1.0),),
    assignment_seed=13,
))


def fleet(name: str) -> FleetProfile:
    """Look a fleet profile up by name."""
    try:
        return FLEETS[name]
    except KeyError:
        raise KeyError(
            f"unknown fleet profile {name!r}; known: {', '.join(FLEETS)}"
        ) from None

"""Sleep-on-Idle policy parameters.

The paper measures an average wake-up time of 60 s (gateway boot plus DSL
re-synchronisation; up to 3 minutes in bad cases) and, following the
analysis of [9] and the inter-packet-gap results of Fig. 4, uses an idle
timeout of 60 s so that the probability of sleeping right before a new
packet arrives is low.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class SoIConfig:
    """Parameters of the Sleep-on-Idle mechanism.

    Attributes:
        idle_timeout_s: traffic-absence period after which a device sleeps.
        wake_up_time_s: time to boot and re-synchronise after a wake-up.
    """

    idle_timeout_s: float = 60.0
    wake_up_time_s: float = 60.0

    def __post_init__(self) -> None:
        if self.idle_timeout_s < 0:
            raise ValueError("idle_timeout_s must be non-negative")
        if self.wake_up_time_s < 0:
            raise ValueError("wake_up_time_s must be non-negative")

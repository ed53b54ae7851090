"""Testbed configuration, workload mapping and the gateway status server."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Tuple

import numpy as np

from repro.testbed.scheduler import Scheduler
from repro.traces.models import Flow, WirelessTrace


@dataclass(frozen=True)
class TestbedConfig:
    """Parameters of the three-floor testbed (Sec. 5.3)."""

    num_gateways: int = 9
    adsl_bps: float = 3e6
    #: A terminal may associate with at most this many gateways (incl. home).
    max_reachable: int = 3
    idle_timeout_s: float = 60.0
    wake_up_time_s: float = 60.0
    low_threshold: float = 0.10
    high_threshold: float = 0.50
    decision_period_s: float = 150.0
    load_window_s: float = 60.0
    #: Replay window: 15:00 to 15:30 of the trace (Fig. 12).
    window_start_s: float = 15 * 3600.0
    window_end_s: float = 15.5 * 3600.0

    def __post_init__(self) -> None:
        if self.num_gateways <= 0:
            raise ValueError("num_gateways must be positive")
        if self.max_reachable < 1:
            raise ValueError("max_reachable must be at least 1")
        if not 0 <= self.low_threshold < self.high_threshold <= 1:
            raise ValueError("thresholds must satisfy 0 <= low < high <= 1")
        if self.window_end_s <= self.window_start_s:
            raise ValueError("replay window must be non-empty")

    @property
    def window_duration_s(self) -> float:
        """Length of the replay window in seconds."""
        return self.window_end_s - self.window_start_s


def build_testbed_workload(
    trace: WirelessTrace, config: TestbedConfig, seed: int = 0
) -> Tuple[Dict[int, List[Flow]], Dict[int, FrozenSet[int]]]:
    """Map the traced APs onto the testbed gateways (the paper's methodology).

    Each testbed terminal replays the flows of all clients originally
    associated with one traced AP selected at random; reachability is a
    random set of ``max_reachable`` gateways including the terminal's own.
    Returns ``(flows_per_terminal, reachable_per_terminal)`` with flow times
    shifted so the replay window starts at 0.
    """
    rng = np.random.default_rng(seed)
    window_trace = trace.restricted_to_window(config.window_start_s, config.window_end_s)
    traced_aps = list(range(trace.num_gateways))
    chosen_aps = rng.choice(traced_aps, size=config.num_gateways, replace=False)

    flows_by_ap = window_trace.flows_by_gateway()
    flows_per_terminal: Dict[int, List[Flow]] = {}
    reachable: Dict[int, FrozenSet[int]] = {}
    for terminal in range(config.num_gateways):
        flows_per_terminal[terminal] = sorted(
            flows_by_ap.get(int(chosen_aps[terminal]), []), key=lambda f: f.start_time
        )
        others = [g for g in range(config.num_gateways) if g != terminal]
        extra = rng.choice(others, size=min(config.max_reachable - 1, len(others)), replace=False)
        reachable[terminal] = frozenset({terminal, *(int(g) for g in extra)})
    return flows_per_terminal, reachable


class GatewayStatusServer:
    """The central server that emulates gateway sleep state in the testbed.

    The real gateways have no SoI support, so the paper runs a script on a
    server that flags a gateway as *sleeping* when its idle timeout expires
    and as *waking-up* (then *active* after the wake-up time) when a
    terminal requests it.  Terminals poll this server over a side channel.
    """

    SLEEPING = "sleeping"
    WAKING = "waking-up"
    ACTIVE = "active"

    def __init__(self, scheduler: Scheduler, config: TestbedConfig):
        self.scheduler = scheduler
        self.config = config
        self._status: Dict[int, str] = {g: self.SLEEPING for g in range(config.num_gateways)}
        self._last_traffic: Dict[int, float] = {g: -float("inf") for g in range(config.num_gateways)}
        self._wake_done: Dict[int, float] = {}
        #: gateway -> list of (time, bits) samples used for load estimation.
        self._load_samples: Dict[int, List[Tuple[float, float]]] = {
            g: [] for g in range(config.num_gateways)
        }
        self.online_seconds: Dict[int, float] = {g: 0.0 for g in range(config.num_gateways)}

    # ------------------------------------------------------------------
    def status(self, gateway: int) -> str:
        """Current status flag of a gateway."""
        self._refresh(gateway)
        return self._status[gateway]

    def is_online(self, gateway: int) -> bool:
        """Whether the gateway can carry traffic."""
        return self.status(gateway) == self.ACTIVE

    def request_wake(self, gateway: int) -> None:
        """A terminal asks its home gateway to wake up."""
        self._refresh(gateway)
        if self._status[gateway] == self.SLEEPING:
            self._status[gateway] = self.WAKING
            self._wake_done[gateway] = self.scheduler.now + self.config.wake_up_time_s

    def report_traffic(self, gateway: int, bits: float) -> None:
        """Record traffic served by a gateway (keeps it awake, feeds load estimates)."""
        if bits < 0:
            raise ValueError("bits must be non-negative")
        now = self.scheduler.now
        self._refresh(gateway)
        if self._status[gateway] != self.ACTIVE:
            raise RuntimeError(f"gateway {gateway} served traffic while {self._status[gateway]}")
        self._last_traffic[gateway] = now
        self._load_samples[gateway].append((now, bits))

    def load(self, gateway: int) -> float:
        """Estimated utilisation of a gateway over the load window (0..1)."""
        now = self.scheduler.now
        window = self.config.load_window_s
        samples = [(t, b) for t, b in self._load_samples[gateway] if t >= now - window]
        self._load_samples[gateway] = samples
        bits = sum(b for _t, b in samples)
        return min(1.0, bits / (self.config.adsl_bps * window))

    def online_count(self) -> int:
        """Number of gateways currently powered (active or waking)."""
        return sum(1 for g in self._status if self.status(g) != self.SLEEPING)

    def accumulate(self, dt: float) -> None:
        """Charge ``dt`` seconds of online time to every powered gateway."""
        for gateway in self._status:
            if self.status(gateway) != self.SLEEPING:
                self.online_seconds[gateway] += dt

    # ------------------------------------------------------------------
    def _refresh(self, gateway: int) -> None:
        now = self.scheduler.now
        if self._status[gateway] == self.WAKING and now >= self._wake_done.get(gateway, now):
            self._status[gateway] = self.ACTIVE
            self._last_traffic[gateway] = now
        if (
            self._status[gateway] == self.ACTIVE
            and now - self._last_traffic[gateway] >= self.config.idle_timeout_s
        ):
            self._status[gateway] = self.SLEEPING

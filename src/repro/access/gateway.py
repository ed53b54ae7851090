"""User-side gateway model with Sleep-on-Idle.

A gateway is the integrated DSL modem + wireless AP + router at the
customer's premises.  It can carry traffic only while ``ACTIVE``; with SoI
enabled it goes to sleep after :attr:`SoIConfig.idle_timeout_s` seconds of
traffic absence and needs :attr:`SoIConfig.wake_up_time_s` seconds to come
back (boot plus DSL re-synchronisation).
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Optional, Tuple

from repro.access.soi import SoIConfig
from repro.power.models import PowerState


class Gateway:
    """One subscriber gateway and its DSL backhaul line.

    The class is a pure state machine: the surrounding simulator advances it
    with :meth:`step`, reports traffic with :meth:`record_traffic`, and wakes
    it with :meth:`request_wake`.  Time is an explicit argument everywhere so
    the model is independent of the simulation driver.
    """

    def __init__(
        self,
        gateway_id: int,
        backhaul_bps: float,
        soi: Optional[SoIConfig] = None,
        sleep_enabled: bool = True,
        load_window_s: float = 60.0,
        initially_sleeping: bool = True,
    ):
        if backhaul_bps <= 0:
            raise ValueError("backhaul_bps must be positive")
        if load_window_s <= 0:
            raise ValueError("load_window_s must be positive")
        self.gateway_id = gateway_id
        self.backhaul_bps = backhaul_bps
        self.soi = soi or SoIConfig()
        self.sleep_enabled = sleep_enabled
        self.load_window_s = load_window_s

        if sleep_enabled and initially_sleeping:
            self.state = PowerState.SLEEPING
        else:
            self.state = PowerState.ACTIVE
        self._wake_complete_at: Optional[float] = None
        self._last_traffic_at: float = 0.0
        self._load_samples: Deque[Tuple[float, float]] = deque()  # (time, bits served)

        # Lifetime statistics.
        self.online_seconds: float = 0.0
        self.waking_seconds: float = 0.0
        self.sleeping_seconds: float = 0.0
        self.wake_count: int = 0
        self.sleep_count: int = 0
        self.bits_served: float = 0.0

    # ------------------------------------------------------------------
    @property
    def is_online(self) -> bool:
        """Whether the gateway can carry traffic right now."""
        return self.state is PowerState.ACTIVE

    @property
    def is_sleeping(self) -> bool:
        """Whether the gateway is powered off."""
        return self.state is PowerState.SLEEPING

    @property
    def is_waking(self) -> bool:
        """Whether the gateway is booting / re-synchronising."""
        return self.state is PowerState.WAKING

    # ------------------------------------------------------------------
    def request_wake(self, now: float) -> None:
        """Ask a sleeping gateway to power on (WoWLAN / Remote Wake)."""
        if self.state is PowerState.SLEEPING:
            self.state = PowerState.WAKING
            self._wake_complete_at = now + self.soi.wake_up_time_s
            self.wake_count += 1
        # Waking or active gateways ignore the request.

    def record_traffic(self, bits: float, now: float) -> None:
        """Report ``bits`` carried through the gateway at time ``now``.

        Only meaningful while the gateway is online; the simulator must not
        push traffic through a sleeping gateway.
        """
        if bits < 0:
            raise ValueError("bits must be non-negative")
        if not self.is_online:
            raise RuntimeError(
                f"gateway {self.gateway_id} received traffic while {self.state.value}"
            )
        if bits > 0:
            self._last_traffic_at = now
            self.bits_served += bits
            self._load_samples.append((now, bits))
            self._expire_samples(now)

    def touch(self, now: float) -> None:
        """Mark traffic presence without volume (e.g. a pending arrival)."""
        self._last_traffic_at = max(self._last_traffic_at, now)

    # ------------------------------------------------------------------
    def utilization(self, now: float) -> float:
        """Backhaul utilisation over the trailing load window (0..1).

        This mirrors what a BH2 terminal estimates by counting 802.11 MAC
        sequence numbers (Sec. 3.2): the fraction of the backhaul capacity
        used during the last estimation window.
        """
        self._expire_samples(now)
        window = min(self.load_window_s, max(now, 1e-9))
        bits = sum(b for _t, b in self._load_samples)
        return min(1.0, bits / (self.backhaul_bps * window))

    def idle_for(self, now: float) -> float:
        """Seconds since the last traffic through this gateway."""
        return max(0.0, now - self._last_traffic_at)

    def next_transition_time(self) -> Optional[float]:
        """Earliest future time at which the state machine may change state.

        Used by the simulator to skip over quiet periods without missing a
        wake-up completion or an idle-timeout expiry.  ``None`` when no
        autonomous transition is pending (sleeping, or sleep disabled).
        """
        if self.state is PowerState.WAKING:
            return self._wake_complete_at
        if self.state is PowerState.ACTIVE and self.sleep_enabled:
            return self._last_traffic_at + self.soi.idle_timeout_s
        return None

    # ------------------------------------------------------------------
    def step(self, now: float, dt: float, has_pending_traffic: bool = False) -> None:
        """Advance the state machine by ``dt`` seconds ending at ``now``.

        ``has_pending_traffic`` should be true when there are flows assigned
        to this gateway (active or queued); it prevents the gateway from
        sleeping under continuous light traffic exactly as in reality.
        """
        if dt < 0:
            raise ValueError("dt must be non-negative")
        # Account the time spent in the state we were in during this step.
        if self.state is PowerState.ACTIVE:
            self.online_seconds += dt
        elif self.state is PowerState.WAKING:
            self.waking_seconds += dt
        else:
            self.sleeping_seconds += dt

        if has_pending_traffic:
            self._last_traffic_at = now

        if self.state is PowerState.WAKING:
            if self._wake_complete_at is not None and now >= self._wake_complete_at:
                self.state = PowerState.ACTIVE
                self._wake_complete_at = None
                self._last_traffic_at = now  # Fresh boot; restart the idle clock.
        elif self.state is PowerState.ACTIVE:
            if (
                self.sleep_enabled
                and not has_pending_traffic
                and self.idle_for(now) >= self.soi.idle_timeout_s
            ):
                self.state = PowerState.SLEEPING
                self.sleep_count += 1
                self._load_samples.clear()

    # ------------------------------------------------------------------
    def _expire_samples(self, now: float) -> None:
        horizon = now - self.load_window_s
        while self._load_samples and self._load_samples[0][0] < horizon:
            self._load_samples.popleft()

    def __repr__(self) -> str:
        return (
            f"<Gateway {self.gateway_id} {self.state.value} "
            f"backhaul={self.backhaul_bps / 1e6:.1f}Mbps>"
        )

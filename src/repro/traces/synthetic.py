"""Synthetic CRAWDAD-like wireless workload generator.

The paper replays the UCSD CSE wireless traces: 272 clients on 40 access
points over 24 hours, with a peak-hour average downlink utilisation of a few
percent of a 6 Mbps backhaul (Fig. 3) and, crucially, *continuous light
traffic* — more than 80 % of the idle time at the peak hour is made up of
inter-packet gaps shorter than 60 s (Fig. 4).

Since the original traces cannot be redistributed here, this module produces
a seeded synthetic workload with the same structure:

* Each client alternates between *online* and *offline* periods following a
  two-state Markov process whose on-rate is modulated by a diurnal profile.
* While online, a client emits three traffic classes:

  - **keepalive** traffic: small transfers every few tens of seconds
    (presence protocols, chat, email polling) — the source of the
    continuous light traffic;
  - **web** traffic: Poisson page views with log-normal sizes;
  - **bulk** traffic: rare large downloads (software updates, video).

The default parameters are calibrated so that the aggregate statistics match
the published figures; see ``tests/test_traces_synthetic.py`` and the Fig. 3
and Fig. 4 benchmarks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from operator import itemgetter
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.traces.models import ClientTrace, Flow, WirelessTrace

#: Diurnal activity profile for an office/residential mix, one weight per
#: hour of day, normalised to 1.0 at the busiest hour (matching the shape of
#: Fig. 3 in the paper: a quiet 04:00-07:00 trough and a 14:00-17:00 peak).
DEFAULT_DIURNAL_PROFILE: Sequence[float] = (
    0.06, 0.04, 0.03, 0.02, 0.015, 0.015, 0.03, 0.08,
    0.22, 0.40, 0.57, 0.70, 0.80, 0.90, 0.97, 1.00,
    0.98, 0.92, 0.82, 0.70, 0.55, 0.38, 0.22, 0.12,
)


@dataclass
class SyntheticTraceConfig:
    """Parameters of the synthetic wireless workload.

    The defaults reproduce the scenario of Sec. 5.1 of the paper.
    """

    num_clients: int = 272
    num_gateways: int = 40
    duration: float = 24 * 3600.0
    seed: int = 2011

    #: Diurnal modulation of client activity (24 hourly weights, peak = 1.0).
    diurnal_profile: Sequence[float] = field(default_factory=lambda: tuple(DEFAULT_DIURNAL_PROFILE))

    #: Probability that a client is online at the peak hour.
    peak_online_probability: float = 0.22
    #: Mean duration of an online session in seconds.
    mean_session_duration: float = 45 * 60.0

    #: Mean gap between keepalive transfers while online (seconds).
    keepalive_mean_gap: float = 28.0
    #: Mean size of a keepalive transfer (bytes).
    keepalive_mean_size: float = 3_000.0

    #: Web page views per minute while online, at the peak hour.
    web_rate_per_minute: float = 4.0
    #: Log-normal parameters of a web transfer size (bytes).
    web_size_log_mean: float = np.log(300_000.0)
    web_size_log_sigma: float = 0.7

    #: Bulk downloads per hour while online, at the peak hour.
    bulk_rate_per_hour: float = 0.12
    #: Log-normal parameters of a bulk transfer size (bytes).
    bulk_size_log_mean: float = np.log(18e6)
    bulk_size_log_sigma: float = 0.8

    #: Streaming (video) sessions per hour while online, at the peak hour.
    #: A streaming session downloads fixed-size chunks at a regular cadence,
    #: which is what keeps a gateway's one-minute load in the band BH2 uses
    #: to recognise gateways that are "in use but not saturated".
    streaming_rate_per_hour: float = 0.45
    #: Mean duration of a streaming session (seconds).
    streaming_mean_duration: float = 8 * 60.0
    #: Chunk size (bytes) and inter-chunk period (seconds): ~1.6 Mbps video.
    streaming_chunk_bytes: int = 1_000_000
    streaming_chunk_period_s: float = 5.0

    #: Maximum size of any single flow (bytes); larger draws are truncated so
    #: a single unlucky sample cannot dominate a gateway for hours.
    max_flow_bytes: int = 150_000_000

    def __post_init__(self) -> None:
        if self.num_clients <= 0 or self.num_gateways <= 0:
            raise ValueError("num_clients and num_gateways must be positive")
        if len(self.diurnal_profile) != 24:
            raise ValueError("diurnal_profile must have 24 hourly entries")
        if not 0 < self.peak_online_probability <= 1:
            raise ValueError("peak_online_probability must lie in (0, 1]")
        if self.duration <= 0:
            raise ValueError("duration must be positive")

    def profile_at(self, time_s: float) -> float:
        """Diurnal weight at an absolute simulation time in seconds."""
        hour = int(time_s // 3600) % 24
        return float(self.diurnal_profile[hour])


class SyntheticTraceGenerator:
    """Generates :class:`~repro.traces.models.WirelessTrace` objects."""

    def __init__(self, config: Optional[SyntheticTraceConfig] = None):
        self.config = cfg = config or SyntheticTraceConfig()
        self._rng = np.random.default_rng(cfg.seed)
        #: Diurnal weight of each hour of day, looked up instead of calling
        #: :meth:`SyntheticTraceConfig.profile_at` per draw.
        self._hourly = [cfg.profile_at(hour * 3600.0) for hour in range(24)]
        #: Mean gap (s) between arrivals of each diurnally modulated Poisson
        #: class, per hour of day.
        self._web_gap, self._bulk_gap, self._streaming_gap = (
            [1.0 / (peak_rate_per_s * max(weight, 1e-3)) for weight in self._hourly]
            for peak_rate_per_s in (
                cfg.web_rate_per_minute / 60.0,
                cfg.bulk_rate_per_hour / 3600.0,
                cfg.streaming_rate_per_hour / 3600.0,
            )
        )

    # ------------------------------------------------------------------
    def generate(self) -> WirelessTrace:
        """Generate the full trace."""
        cfg = self.config
        home_gateway = self._assign_home_gateways()
        clients: Dict[int, ClientTrace] = {}
        flow_id = 0
        for client_id in range(cfg.num_clients):
            flows: List[Flow] = []
            for start, end in self._generate_sessions():
                flows.extend(self._session_flows(client_id, start, end, flow_id + len(flows)))
            flow_id += len(flows)
            clients[client_id] = ClientTrace(client_id=client_id, flows=flows)
        return WirelessTrace(
            duration=cfg.duration,
            clients=clients,
            home_gateway=home_gateway,
            num_gateways=cfg.num_gateways,
        )

    # ------------------------------------------------------------------
    def _assign_home_gateways(self) -> Dict[int, int]:
        """Uniformly distribute clients over gateways (Sec. 5.1)."""
        cfg = self.config
        assignment: Dict[int, int] = {}
        # Round-robin assignment guarantees the uniform spread the paper uses,
        # then a random permutation of client ids removes ordering artefacts.
        permutation = self._rng.permutation(cfg.num_clients)
        for index, client_id in enumerate(permutation):
            assignment[int(client_id)] = index % cfg.num_gateways
        return assignment

    def _generate_sessions(self) -> List[tuple]:
        """Online periods of one client as a list of ``(start, end)`` tuples.

        Implemented as a two-state Markov process sampled in one-minute
        steps.  The on-rate is modulated by the diurnal profile so that the
        stationary online probability at the peak hour equals
        ``peak_online_probability``.  Every step consumes one uniform draw,
        so the client's draws are taken in one batch.
        """
        cfg = self.config
        step = 60.0
        off_to_on_peak = step / cfg.mean_session_duration * (
            cfg.peak_online_probability / max(1e-9, 1.0 - cfg.peak_online_probability)
        )
        on_to_off = step / cfg.mean_session_duration
        off_to_on = [off_to_on_peak * weight for weight in self._hourly]

        sessions: List[tuple] = []
        online = False
        session_start = 0.0
        t = 0.0
        # One draw per step t = 0, 60, ... below the duration.
        for draw in self._rng.random(math.ceil(cfg.duration / step)).tolist():
            if online:
                if draw < on_to_off:
                    sessions.append((session_start, t))
                    online = False
            elif draw < off_to_on[int(t // 3600) % 24]:
                online = True
                session_start = t
            t += step
        if online:
            sessions.append((session_start, cfg.duration))
        return sessions

    def _session_flows(
        self, client_id: int, start: float, end: float, next_flow_id: int
    ) -> List[Flow]:
        """Traffic emitted during one online session, ordered by start time."""
        cfg = self.config
        rng = self._rng
        # ``(start_time, size_bytes, kind)`` of every flow, in draw order.
        emitted: List[tuple] = []

        # Keepalive / presence traffic: continuous light traffic.
        t = start + float(rng.exponential(cfg.keepalive_mean_gap))
        while t < end:
            size = max(200, int(rng.exponential(cfg.keepalive_mean_size)))
            emitted.append((t, min(size, cfg.max_flow_bytes), "keepalive"))
            t += float(rng.exponential(cfg.keepalive_mean_gap))

        # Web browsing: Poisson page views modulated by the diurnal profile.
        t = start
        while True:
            t += float(rng.exponential(self._web_gap[int(t // 3600) % 24]))
            if t >= end:
                break
            size = int(rng.lognormal(cfg.web_size_log_mean, cfg.web_size_log_sigma))
            emitted.append((t, min(max(size, 1_000), cfg.max_flow_bytes), "web"))

        # Bulk downloads: rare, heavy.
        t = start
        while True:
            t += float(rng.exponential(self._bulk_gap[int(t // 3600) % 24]))
            if t >= end:
                break
            size = int(rng.lognormal(cfg.bulk_size_log_mean, cfg.bulk_size_log_sigma))
            emitted.append((t, min(max(size, 500_000), cfg.max_flow_bytes), "bulk"))

        # Streaming sessions: chunked downloads at a steady medium rate.
        t = start
        while True:
            t += float(rng.exponential(self._streaming_gap[int(t // 3600) % 24]))
            if t >= end:
                break
            session_end = min(end, t + float(rng.exponential(cfg.streaming_mean_duration)))
            chunk_time = t
            while chunk_time < session_end:
                emitted.append((chunk_time, cfg.streaming_chunk_bytes, "streaming"))
                chunk_time += cfg.streaming_chunk_period_s
            t = session_end

        # A stable sort by start time; ids stay unique and ordered after it.
        emitted.sort(key=itemgetter(0))
        # Positional arguments: the cheapest way to build the records.
        return [
            Flow(next_flow_id + offset, client_id, t, size, kind)
            for offset, (t, size, kind) in enumerate(emitted)
        ]


def generate_crawdad_like_trace(
    seed: int = 2011,
    num_clients: int = 272,
    num_gateways: int = 40,
    duration: float = 24 * 3600.0,
    **overrides,
) -> WirelessTrace:
    """Convenience wrapper used throughout the examples and benchmarks."""
    config = SyntheticTraceConfig(
        num_clients=num_clients,
        num_gateways=num_gateways,
        duration=duration,
        seed=seed,
        **overrides,
    )
    return SyntheticTraceGenerator(config).generate()

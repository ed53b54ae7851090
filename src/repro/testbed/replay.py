"""Discrete-event replay of the testbed experiment (Fig. 12).

Each terminal is a generator process on the package's own
:class:`~repro.testbed.scheduler.Scheduler`, yielding the delay until it
next acts: it replays the flows of its assigned traced AP, runs the BH2
decision logic every decision period (with no backup gateway, as in the
paper's testbed), and downloads through whichever gateway it selected —
waiting for its home gateway to wake up when no remote gateway is usable.
A monitor process samples the number of online gateways, producing the
Fig. 12 series.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.testbed.deployment import GatewayStatusServer, TestbedConfig, build_testbed_workload
from repro.testbed.scheduler import Scheduler
from repro.traces.models import Flow, WirelessTrace


@dataclass
class TestbedResult:
    """Outcome of one testbed replay."""

    scheme: str
    sample_times: List[float]
    online_gateways: List[int]
    gateway_online_seconds: Dict[int, float]
    completed_flows: int

    def mean_online(self) -> float:
        """Average number of online gateways over the replay."""
        return float(np.mean(self.online_gateways)) if self.online_gateways else 0.0

    def mean_sleeping(self, num_gateways: int) -> float:
        """Average number of sleeping gateways over the replay.

        Fig. 12 reports sleeping gateways; the tests compare BH2 with SoI
        by this number.
        """
        return num_gateways - self.mean_online()


class TestbedReplay:
    """Replays the testbed workload under either plain SoI or BH2."""

    def __init__(
        self,
        trace: WirelessTrace,
        config: Optional[TestbedConfig] = None,
        seed: int = 0,
        sample_interval_s: float = 30.0,
    ):
        self.config = config or TestbedConfig()
        self.seed = seed
        self.sample_interval_s = sample_interval_s
        self.flows, self.reachable = build_testbed_workload(trace, self.config, seed=seed)

    # ------------------------------------------------------------------
    def run(self, use_bh2: bool = True) -> TestbedResult:
        """Run one replay; ``use_bh2=False`` gives the SoI comparison run."""
        scheduler = Scheduler()
        server = GatewayStatusServer(scheduler, self.config)
        rng = np.random.default_rng(self.seed)
        samples: List[Tuple[float, int]] = []
        completed = {"count": 0}
        current_gateway: Dict[int, int] = {t: t for t in self.flows}

        for terminal, terminal_flows in self.flows.items():
            scheduler.process(
                self._terminal_process(
                    scheduler, server, terminal, terminal_flows, current_gateway, completed
                )
            )
            if use_bh2:
                offset = float(rng.uniform(0, self.config.decision_period_s))
                scheduler.process(
                    self._bh2_process(scheduler, server, terminal, offset, current_gateway)
                )
        scheduler.process(self._monitor_process(scheduler, server, samples))
        scheduler.run(until=self.config.window_duration_s)

        return TestbedResult(
            scheme="BH2" if use_bh2 else "SoI",
            sample_times=[t for t, _count in samples],
            online_gateways=[count for _t, count in samples],
            gateway_online_seconds=dict(server.online_seconds),
            completed_flows=completed["count"],
        )

    def run_comparison(self) -> Dict[str, TestbedResult]:
        """Both Fig. 12 series: BH2 and SoI over the same workload."""
        return {"BH2": self.run(use_bh2=True), "SoI": self.run(use_bh2=False)}

    # ------------------------------------------------------------------
    def _terminal_process(
        self,
        scheduler: Scheduler,
        server: GatewayStatusServer,
        terminal: int,
        flows: List[Flow],
        current_gateway: Dict[int, int],
        completed: Dict[str, int],
    ):
        """Replay the terminal's flows as timed HTTP downloads."""
        config = self.config
        for flow in flows:
            delay = flow.start_time - scheduler.now
            if delay > 0:
                yield delay
            gateway = current_gateway[terminal]
            # A terminal can only wake its own home gateway.
            if not server.is_online(gateway):
                if gateway != terminal:
                    current_gateway[terminal] = terminal
                    gateway = terminal
                server.request_wake(gateway)
                while not server.is_online(gateway):
                    yield 1.0
            # Serve the download in one-second chunks so the load estimates
            # and the idle timer see a realistic traffic pattern.
            remaining_bits = flow.size_bytes * 8.0
            while remaining_bits > 0:
                if not server.is_online(gateway):
                    # The gateway slept mid-transfer (should not happen while
                    # we keep reporting traffic); fall back to the home one.
                    gateway = terminal
                    server.request_wake(gateway)
                    while not server.is_online(gateway):
                        yield 1.0
                chunk = min(remaining_bits, config.adsl_bps * 1.0)
                server.report_traffic(gateway, chunk)
                remaining_bits -= chunk
                yield 1.0
            completed["count"] += 1

    def _bh2_process(
        self,
        scheduler: Scheduler,
        server: GatewayStatusServer,
        terminal: int,
        offset: float,
        current_gateway: Dict[int, int],
    ):
        """The BH2 decision loop of one terminal (no backup, as in the testbed)."""
        config = self.config
        rng = np.random.default_rng(self.seed * 1000 + terminal)
        if offset > 0:
            yield offset
        while True:
            home = terminal
            current = current_gateway[terminal]
            current_load = server.load(current) if server.is_online(current) else 0.0
            candidates = [
                g
                for g in self.reachable[terminal]
                if g != current
                and server.is_online(g)
                and config.low_threshold < server.load(g) < config.high_threshold
            ]
            if current == home:
                if (not server.is_online(home) or current_load < config.low_threshold) and candidates:
                    loads = np.array([server.load(g) for g in candidates])
                    probabilities = loads / loads.sum() if loads.sum() > 0 else None
                    current_gateway[terminal] = int(rng.choice(candidates, p=probabilities))
            else:
                if not server.is_online(current) or current_load >= config.high_threshold:
                    current_gateway[terminal] = home
                elif current_load < config.low_threshold:
                    remote_candidates = [g for g in candidates if g != home]
                    if remote_candidates:
                        loads = np.array([server.load(g) for g in remote_candidates])
                        probabilities = loads / loads.sum() if loads.sum() > 0 else None
                        current_gateway[terminal] = int(rng.choice(remote_candidates, p=probabilities))
                    else:
                        current_gateway[terminal] = home
            yield config.decision_period_s

    def _monitor_process(
        self,
        scheduler: Scheduler,
        server: GatewayStatusServer,
        samples: List[Tuple[float, int]],
    ):
        """Sample the number of online gateways at a fixed cadence."""
        interval = self.sample_interval_s
        while True:
            samples.append((scheduler.now, server.online_count()))
            server.accumulate(interval)
            yield interval

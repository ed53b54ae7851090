"""Testbed deployment replay (Sec. 5.3 of the paper).

The paper validates BH2 on a live three-floor testbed: 9-10 commercial
3 Mbps ADSL lines, one BH2 laptop per line, each laptop reachable from
about 5.5 gateways but limited to using 3, no backup gateway, and a central
status server that emulates gateway sleep/wake because the commercial
gateways have no SoI support.  This package reproduces that deployment as a
discrete-event simulation on its own small scheduler
(:class:`~repro.testbed.scheduler.Scheduler`), independent of the main
simulator, and regenerates Fig. 12 (online APs between 15:00 and 15:30
under BH2 versus SoI).
"""

from repro.testbed.deployment import GatewayStatusServer, TestbedConfig, build_testbed_workload
from repro.testbed.replay import TestbedReplay, TestbedResult

__all__ = [
    "TestbedConfig",
    "GatewayStatusServer",
    "build_testbed_workload",
    "TestbedReplay",
    "TestbedResult",
]

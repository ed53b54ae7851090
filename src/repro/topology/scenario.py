"""Evaluation scenario construction (Sec. 5.1 of the paper).

A :class:`Scenario` bundles everything the simulator needs:

* the traffic trace (272 clients, 40 gateways, 24 h by default);
* the wireless overlap topology (mean 5.6 networks in range);
* wireless/backhaul capacities (12 Mbps to the home gateway, 6 Mbps to
  neighbours, 6 Mbps ADSL backhaul);
* the DSLAM layout (48 ports in 4 line cards of 12 ports) and the random
  assignment of gateways to ports, justified by the attenuation analysis of
  the paper's appendix.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

import numpy as np

from repro.fleet.churn import ChurnTimeline
from repro.fleet.profile import FleetProfile
from repro.topology.overlap import GatewayTopology, binomial_connectivity, generate_overlap_topology
from repro.traces.models import WirelessTrace
from repro.traces.synthetic import SyntheticTraceConfig, SyntheticTraceGenerator


@dataclass(frozen=True)
class WirelessParameters:
    """Wireless and backhaul capacities of the deployment.

    The evaluation of Sec. 5.1 gives a client 12 Mbps to its home gateway
    and 6 Mbps to a neighbouring gateway (the Mark-and-Sweep measurements
    of the paper's reference [40]), behind a 6 Mbps ADSL backhaul.  Both
    kernels take every client↔gateway link capacity from
    :meth:`wireless_capacity`; the testbed of Sec. 5.3 reports that the
    wireless hop always exceeds the backhaul, so the backhaul is usually
    the bottleneck.
    """

    home_capacity_bps: float = 12e6
    neighbour_capacity_bps: float = 6e6
    backhaul_bps: float = 6e6

    def __post_init__(self) -> None:
        if min(self.home_capacity_bps, self.neighbour_capacity_bps, self.backhaul_bps) <= 0:
            raise ValueError("all capacities must be positive")

    def wireless_capacity(self, is_home: bool) -> float:
        """Capacity of a client↔gateway wireless link, home or neighbour."""
        return self.home_capacity_bps if is_home else self.neighbour_capacity_bps

    def scaled(self, factor: float) -> "WirelessParameters":
        """Scale the backhaul capacity (used by the sensitivity analysis)."""
        if factor <= 0:
            raise ValueError("factor must be positive")
        return WirelessParameters(
            home_capacity_bps=self.home_capacity_bps,
            neighbour_capacity_bps=self.neighbour_capacity_bps,
            backhaul_bps=self.backhaul_bps * factor,
        )


@dataclass(frozen=True)
class DslamConfig:
    """DSLAM layout and switching capability at the HDF.

    ``switch_size`` is the ``k`` of the k-switches (``None`` for no switching
    capability, i.e. lines are hard-wired to their ports; ``0`` is not
    allowed; use :meth:`full_switch` for the idealised any-line-to-any-port
    switch of the *Optimal* scheme).
    """

    num_line_cards: int = 4
    ports_per_card: int = 12
    switch_size: Optional[int] = 4
    full_switch: bool = False

    def __post_init__(self) -> None:
        if self.num_line_cards <= 0 or self.ports_per_card <= 0:
            raise ValueError("num_line_cards and ports_per_card must be positive")
        if self.switch_size is not None:
            if self.switch_size <= 0:
                raise ValueError("switch_size must be positive or None")
            if self.switch_size > self.num_line_cards:
                raise ValueError(
                    "a k-switch spans one port on each of k distinct line cards; "
                    f"k={self.switch_size} exceeds the {self.num_line_cards} cards available"
                )

    @property
    def total_ports(self) -> int:
        """Total number of DSLAM ports."""
        return self.num_line_cards * self.ports_per_card

    def with_switch(self, switch_size: Optional[int], full: bool = False) -> "DslamConfig":
        """A copy of this layout with a different switching capability."""
        return DslamConfig(
            num_line_cards=self.num_line_cards,
            ports_per_card=self.ports_per_card,
            switch_size=switch_size,
            full_switch=full,
        )


@dataclass
class Scenario:
    """Complete input of one simulation run."""

    trace: WirelessTrace
    topology: GatewayTopology
    wireless: WirelessParameters = field(default_factory=WirelessParameters)
    dslam: DslamConfig = field(default_factory=DslamConfig)
    #: gateway id -> DSLAM port index in [0, dslam.total_ports).
    gateway_port: Dict[int, int] = field(default_factory=dict)
    seed: int = 0
    #: Gateway-generation mix (``None`` means the homogeneous 9 W fleet).
    fleet: Optional[FleetProfile] = None
    #: Mid-trace churn events (``None`` means a static deployment).
    churn: Optional[ChurnTimeline] = None

    def __post_init__(self) -> None:
        if self.trace.num_gateways != self.topology.num_gateways:
            raise ValueError("trace and topology disagree on the number of gateways")
        if self.trace.num_gateways > self.dslam.total_ports:
            raise ValueError(
                f"{self.trace.num_gateways} gateways do not fit in a DSLAM with "
                f"{self.dslam.total_ports} ports"
            )
        if not self.gateway_port:
            self.gateway_port = random_port_assignment(
                self.trace.num_gateways, self.dslam, seed=self.seed
            )
        ports = list(self.gateway_port.values())
        if len(set(ports)) != len(ports):
            raise ValueError("two gateways share a DSLAM port")
        if any(not 0 <= p < self.dslam.total_ports for p in ports):
            raise ValueError("DSLAM port index out of range")
        if self.churn is not None:
            self.churn.validate_against(
                self.trace.num_gateways, list(self.trace.home_gateway)
            )
        if self.fleet is not None:
            # Fail early on an inconsistent mix rather than inside a run.
            self.fleet.counts(self.trace.num_gateways)

    @property
    def num_gateways(self) -> int:
        """Number of gateways in the scenario."""
        return self.trace.num_gateways

    @property
    def num_clients(self) -> int:
        """Number of clients in the scenario."""
        return self.trace.num_clients

    def card_of_gateway(self, gateway_id: int) -> int:
        """Line card index hosting the gateway's default port."""
        return self.gateway_port[gateway_id] // self.dslam.ports_per_card


def random_port_assignment(num_gateways: int, dslam: DslamConfig, seed: int = 0) -> Dict[int, int]:
    """Random assignment of gateways to DSLAM ports.

    The paper's appendix shows that line attenuations are i.i.d. across line
    cards in production DSLAMs, i.e. geographically close customers are not
    clustered on the same card, so a uniform random assignment is faithful.
    """
    if num_gateways > dslam.total_ports:
        raise ValueError("more gateways than DSLAM ports")
    rng = np.random.default_rng(seed)
    ports = rng.permutation(dslam.total_ports)[:num_gateways]
    return {gateway: int(port) for gateway, port in enumerate(ports)}


def build_default_scenario(
    seed: int = 2011,
    num_clients: int = 272,
    num_gateways: int = 40,
    duration: float = 24 * 3600.0,
    mean_networks_in_range: float = 5.6,
    dslam: Optional[DslamConfig] = None,
    trace: Optional[WirelessTrace] = None,
    density_override: Optional[float] = None,
    wireless: Optional[WirelessParameters] = None,
    fleet: Optional[FleetProfile] = None,
    churn: Optional[ChurnTimeline] = None,
    **trace_overrides,
) -> Scenario:
    """The default evaluation scenario of Sec. 5.1.

    ``density_override`` switches the topology to the binomial connectivity
    model of Fig. 10 with the given mean number of available gateways;
    ``wireless`` overrides the capacity mix (the scenario-catalog families
    use it for backhaul sensitivity); ``fleet`` and ``churn`` attach a
    gateway-generation mix and a mid-trace churn timeline (see
    :mod:`repro.fleet`).
    """
    if trace is None:
        config = SyntheticTraceConfig(
            num_clients=num_clients,
            num_gateways=num_gateways,
            duration=duration,
            seed=seed,
            **trace_overrides,
        )
        trace = SyntheticTraceGenerator(config).generate()
    if density_override is not None:
        topology = binomial_connectivity(
            trace.home_gateway, trace.num_gateways, mean_available=density_override, seed=seed
        )
    else:
        topology = generate_overlap_topology(
            trace.home_gateway,
            trace.num_gateways,
            mean_networks_in_range=mean_networks_in_range,
            seed=seed,
        )
    return Scenario(
        trace=trace,
        topology=topology,
        wireless=wireless or WirelessParameters(),
        dslam=dslam or DslamConfig(),
        seed=seed,
        fleet=fleet,
        churn=churn,
    )

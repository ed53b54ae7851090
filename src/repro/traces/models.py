"""Data model for traffic traces.

The simulator is flow-driven, mirroring the testbed methodology of the
paper (Sec. 5.3): "for each flow, we record the timestamp t and the amount
of bytes b reported in the traces and we replay it".

A trace holds one :class:`Flow` per transfer (hundreds of thousands at
paper scale), built once and shared by every simulation run over the
trace, so ``Flow`` is a light immutable record: a ``NamedTuple`` with a
validating ``__new__``, which builds about three times faster than a
frozen dataclass and holds no per-instance ``__dict__``.  Traces contain
no reference cycles, so a sweep can freeze a built one out of the cyclic
garbage collector (:mod:`repro.sweep.engine`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, NamedTuple, Tuple

SECONDS_PER_DAY = 24 * 3600.0


# typing.NamedTuple refuses a __new__ of its own, so Flow subclasses its
# field tuple to validate.
class _FlowFields(NamedTuple):
    flow_id: int
    client_id: int
    start_time: float
    size_bytes: int
    kind: str = "web"


class Flow(_FlowFields):
    """A downlink transfer: ``size_bytes`` requested at ``start_time``.

    An immutable record with value equality and hashing, built once per
    trace flow and shared by every simulation run over the trace.

    Attributes:
        flow_id: unique identifier within the trace.
        client_id: identifier of the requesting client.
        start_time: request time in seconds from trace start.
        size_bytes: number of bytes to transfer.
        kind: free-form label ("web", "keepalive", "bulk", ...), used only
            for reporting.
    """

    __slots__ = ()

    def __new__(
        cls,
        flow_id: int,
        client_id: int,
        start_time: float,
        size_bytes: int,
        kind: str = "web",
    ) -> "Flow":
        if start_time < 0:
            raise ValueError(f"flow start_time must be non-negative, got {start_time}")
        if size_bytes <= 0:
            raise ValueError(f"flow size must be positive, got {size_bytes}")
        return tuple.__new__(cls, (flow_id, client_id, start_time, size_bytes, kind))


@dataclass
class ClientTrace:
    """All traffic of one client over the trace duration."""

    client_id: int
    flows: List[Flow] = field(default_factory=list)

    @property
    def total_bytes(self) -> int:
        """Total downlink volume of the client."""
        return sum(f.size_bytes for f in self.flows)

    def flows_between(self, t_start: float, t_end: float) -> List[Flow]:
        """Flows starting in the half-open interval ``[t_start, t_end)``."""
        return [f for f in self.flows if t_start <= f.start_time < t_end]


@dataclass
class WirelessTrace:
    """A complete trace: clients, their home gateways and their flows.

    Attributes:
        duration: trace length in seconds.
        clients: mapping of client id to :class:`ClientTrace`.
        home_gateway: mapping of client id to its home gateway id.
        num_gateways: number of gateways (access points) in the deployment.
    """

    duration: float
    clients: Dict[int, ClientTrace]
    home_gateway: Dict[int, int]
    num_gateways: int

    def __post_init__(self) -> None:
        if self.duration <= 0:
            raise ValueError("trace duration must be positive")
        missing = set(self.clients) - set(self.home_gateway)
        if missing:
            raise ValueError(f"clients without a home gateway: {sorted(missing)[:5]} ...")
        bad_gateways = {g for g in self.home_gateway.values() if not 0 <= g < self.num_gateways}
        if bad_gateways:
            raise ValueError(f"home gateway ids out of range: {sorted(bad_gateways)}")
        # Built on first use by arrival_stream() and period_demand(), then
        # shared by every simulation run over this trace.  Plain attributes,
        # not fields: they take no part in equality, repr or digests.
        self._arrival_stream: Tuple[List[Flow], List[float]] | None = None
        self._period_demand: Dict[float, Dict[int, Dict[int, float]]] = {}

    # -- convenience accessors ------------------------------------------------
    @property
    def num_clients(self) -> int:
        """Number of clients in the trace."""
        return len(self.clients)

    @property
    def num_flows(self) -> int:
        """Total number of flows across all clients."""
        return sum(len(c.flows) for c in self.clients.values())

    @property
    def total_bytes(self) -> int:
        """Total downlink volume across all clients."""
        return sum(c.total_bytes for c in self.clients.values())

    def all_flows(self) -> List[Flow]:
        """All flows across all clients, ordered by start time."""
        flows: List[Flow] = []
        for client in self.clients.values():
            flows.extend(client.flows)
        flows.sort(key=lambda f: f.start_time)
        return flows

    def arrival_stream(self) -> Tuple[List[Flow], List[float]]:
        """:meth:`all_flows` and their start times, built once per trace.

        Every simulation run over the trace receives the same two lists, so
        callers must read them and never modify them (nor the trace's flows
        once it has been simulated).
        """
        stream = self._arrival_stream
        if stream is None:
            flows = self.all_flows()
            stream = (flows, [f.start_time for f in flows])
            self._arrival_stream = stream
        return stream

    def period_demand(self, period_s: float) -> Dict[int, Dict[int, float]]:
        """Per-period, per-client demand (bps) the trace's flows generate.

        Maps ``int(start_time // period_s)`` to each client's bytes starting
        in that period, as a rate over the period.  The *Optimal* scheme is
        given the demand each client will actually generate during the
        upcoming period, which is the natural clairvoyant upper bound.  Built
        once per period length and shared like :meth:`arrival_stream`.
        """
        demand = self._period_demand.get(period_s)
        if demand is not None:
            return demand
        demand = {}
        # Arrivals are sorted by start time, so the period buckets come in
        # non-decreasing runs and the bucket lookup can be hoisted.
        current_index = -1
        bucket: Dict[int, float] = {}
        for flow in self.arrival_stream()[0]:
            index = int(flow.start_time // period_s)
            if index != current_index:
                bucket = demand.setdefault(index, {})
                current_index = index
            client = flow.client_id
            bucket[client] = bucket.get(client, 0.0) + flow.size_bytes * 8.0 / period_s
        self._period_demand[period_s] = demand
        return demand

    def flows_by_gateway(self) -> Dict[int, List[Flow]]:
        """Flows grouped by the home gateway of their client."""
        grouped: Dict[int, List[Flow]] = {g: [] for g in range(self.num_gateways)}
        for client_id, client in self.clients.items():
            grouped[self.home_gateway[client_id]].extend(client.flows)
        for flows in grouped.values():
            flows.sort(key=lambda f: f.start_time)
        return grouped

    def restricted_to_window(self, t_start: float, t_end: float) -> "WirelessTrace":
        """A copy of the trace containing only flows in ``[t_start, t_end)``.

        Flow start times are shifted so that ``t_start`` becomes 0.
        """
        if not 0 <= t_start < t_end <= self.duration:
            raise ValueError("invalid window")
        clients = {}
        for client_id, client in self.clients.items():
            flows = [
                Flow(
                    flow_id=f.flow_id,
                    client_id=f.client_id,
                    start_time=f.start_time - t_start,
                    size_bytes=f.size_bytes,
                    kind=f.kind,
                )
                for f in client.flows_between(t_start, t_end)
            ]
            clients[client_id] = ClientTrace(client_id=client_id, flows=flows)
        return WirelessTrace(
            duration=t_end - t_start,
            clients=clients,
            home_gateway=dict(self.home_gateway),
            num_gateways=self.num_gateways,
        )


@dataclass
class TraceStats:
    """Aggregate statistics of a trace, used for validation and reporting."""

    num_clients: int
    num_gateways: int
    num_flows: int
    total_bytes: int
    duration: float
    mean_utilization: float
    peak_hour: int
    peak_hour_utilization: float

    @classmethod
    def from_trace(cls, trace: WirelessTrace, backhaul_bps: float = 6e6) -> "TraceStats":
        """Compute statistics assuming each gateway has ``backhaul_bps`` backhaul."""
        hours = int(trace.duration // 3600)
        per_hour_bytes = [0.0] * max(hours, 1)
        for flow in trace.all_flows():
            hour = min(int(flow.start_time // 3600), len(per_hour_bytes) - 1)
            per_hour_bytes[hour] += flow.size_bytes
        capacity_per_hour = backhaul_bps / 8.0 * 3600.0 * trace.num_gateways
        per_hour_util = [b / capacity_per_hour for b in per_hour_bytes]
        peak_hour = max(range(len(per_hour_util)), key=lambda h: per_hour_util[h])
        total_capacity = capacity_per_hour * len(per_hour_bytes)
        return cls(
            num_clients=trace.num_clients,
            num_gateways=trace.num_gateways,
            num_flows=trace.num_flows,
            total_bytes=trace.total_bytes,
            duration=trace.duration,
            mean_utilization=trace.total_bytes / total_capacity if total_capacity else 0.0,
            peak_hour=peak_hour,
            peak_hour_utilization=per_hour_util[peak_hour],
        )

"""In-flight flow state and completion records.

The live kernel (:class:`~repro.flows.scheduler.FlowScheduler` and the
admission loop of :mod:`repro.simulation.simulator`) keeps each in-flight
flow as a plain six-slot list, indexed by the slot constants below::

    [remaining_bytes, rate_bps, wireless_capacity_bps, gateway_id, flow,
     admission_index]

``flow`` is the trace :class:`~repro.traces.models.Flow`, ``rate_bps`` the
flow's cached max-min share (0 while its gateway is offline) and
``admission_index`` the global admission sequence number, so
order-sensitive aggregations can replay the seed's flow order.  A list
display builds about five times faster than a slotted object, and the
kernel admits hundreds of thousands of flows per run.  Lists compare by
value, so code that looks for one record in a group compares by identity
(``is``), never with ``in``, ``list.remove`` or ``list.index``.

A record lives only while its flow is in flight: the scheduler keeps a
finished flow as completion columns (the trace flow, its gateway and its
completion instant) and drops the record.  A :class:`FlowRecord` per
completion is built from those columns only when a caller reads a
result's ``flow_records`` (figures, CDFs); a sweep reads the scheduler's
served-flow and served-byte counters instead.  ``FlowRecord``, like the
trace's ``Flow``, is a ``NamedTuple`` (tuple construction is C-speed).

:class:`ActiveFlow` is the seed kernel's in-flight type, kept as the
oracle's (:mod:`repro.simulation.reference_kernel`); the live kernel does
not build one.
"""

from __future__ import annotations

from typing import NamedTuple, Optional

from repro.traces.models import Flow

#: Slots of an in-flight flow record (see the module docstring).
REMAINING_BYTES = 0
RATE_BPS = 1
WIRELESS_CAPACITY_BPS = 2
GATEWAY_ID = 3
TRACE_FLOW = 4
ADMISSION_INDEX = 5


class ActiveFlow:
    """The seed kernel's in-flight flow, kept as the oracle's type.

    Only :mod:`repro.simulation.reference_kernel`, the preserved seed
    kernel that the equivalence tests compare the live kernel with,
    builds one; the live kernel keeps a six-slot list record per flow
    instead (see the module docstring).
    """

    __slots__ = (
        "flow",
        "gateway_id",
        "wireless_capacity_bps",
        "remaining_bytes",
        "completion_time",
    )

    def __init__(
        self,
        flow: Flow,
        gateway_id: int,
        wireless_capacity_bps: float,
        completion_time: Optional[float] = None,
    ):
        if wireless_capacity_bps <= 0:
            raise ValueError("wireless_capacity_bps must be positive")
        self.flow = flow
        self.gateway_id = gateway_id
        self.wireless_capacity_bps = wireless_capacity_bps
        self.remaining_bytes = float(flow.size_bytes)
        self.completion_time = completion_time

    @property
    def client_id(self) -> int:
        """Client the flow belongs to."""
        return self.flow.client_id

    @property
    def done(self) -> bool:
        """Whether the transfer has finished."""
        return self.remaining_bytes <= 1e-9

    def serve(self, rate_bps: float, dt: float, now: float) -> float:
        """Transfer up to ``rate_bps * dt`` bits; returns the bits served."""
        if rate_bps < 0 or dt < 0:
            raise ValueError("rate and dt must be non-negative")
        if self.done:
            return 0.0
        bits = min(rate_bps * dt, self.remaining_bytes * 8.0)
        self.remaining_bytes -= bits / 8.0
        if self.done:
            # The flow finished part-way through the step: record the actual
            # instant the last byte was delivered, not the end of the step.
            served_for = bits / rate_bps if rate_bps > 0 else dt
            self.completion_time = now + min(dt, served_for)
        return bits

    def to_record(self) -> "FlowRecord":
        """Freeze the flow into an immutable result record."""
        if self.completion_time is None:
            raise ValueError("flow has not completed yet")
        return FlowRecord(
            flow_id=self.flow.flow_id,
            client_id=self.flow.client_id,
            gateway_id=self.gateway_id,
            size_bytes=self.flow.size_bytes,
            arrival_time=self.flow.start_time,
            completion_time=self.completion_time,
        )

    def __repr__(self) -> str:
        return (
            f"ActiveFlow(flow={self.flow!r}, gateway_id={self.gateway_id}, "
            f"remaining_bytes={self.remaining_bytes})"
        )


class FlowRecord(NamedTuple):
    """Result of one completed flow."""

    flow_id: int
    client_id: int
    gateway_id: int
    size_bytes: int
    arrival_time: float
    completion_time: float

    @property
    def duration_s(self) -> float:
        """Observed completion time (arrival to last byte)."""
        return self.completion_time - self.arrival_time

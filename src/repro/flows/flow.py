"""In-flight flow state and completion records.

Both classes are lean value types rather than dataclasses: the simulator
creates one :class:`ActiveFlow` per admitted trace flow (hundreds of
thousands per run), so construction cost is a measurable slice of a run.
An ``ActiveFlow`` lives only while its flow is in flight: the scheduler
keeps a finished flow as completion columns (the trace flow, its gateway
and its completion instant) and drops the ``ActiveFlow``.  A
:class:`FlowRecord` per completion is built from those columns only when
a caller reads a result's ``flow_records`` (figures, CDFs); a sweep reads
the scheduler's served-flow and served-byte counters instead.
``ActiveFlow`` is a mutable ``__slots__`` class; ``FlowRecord``, like the
trace's :class:`~repro.traces.models.Flow`, is a ``NamedTuple`` (tuple
construction is C-speed).
"""

from __future__ import annotations

from typing import NamedTuple, Optional

from repro.traces.models import Flow


class ActiveFlow:
    """A flow currently being transferred (or waiting for its gateway).

    The gateway a flow is routed through is chosen when the flow is
    admitted, and BH2 routes only *new* flows through a newly selected
    gateway.  In-flight flows do move, with
    :meth:`~repro.flows.scheduler.FlowScheduler.migrate`: the Optimal
    scheme's re-assignment moves them to the gateways it keeps online,
    and the churn rescue moves a departing gateway's flows to a neighbour.
    """

    __slots__ = (
        "flow",
        "gateway_id",
        "wireless_capacity_bps",
        "remaining_bytes",
        "completion_time",
        "rate_bps",
        "admission_index",
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
        #: Current max-min share (maintained by the scheduler; 0 while the
        #: flow's gateway is offline).
        self.rate_bps = 0.0
        #: Global admission sequence number (stamped by the scheduler) so
        #: order-sensitive aggregations can replay the seed's flow order.
        self.admission_index = 0

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

    def to_record(self, baseline_duration_s: Optional[float] = None) -> "FlowRecord":
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
            baseline_duration_s=baseline_duration_s,
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
    baseline_duration_s: Optional[float] = None

    @property
    def duration_s(self) -> float:
        """Observed completion time (arrival to last byte)."""
        return self.completion_time - self.arrival_time

    def variation_vs_baseline_percent(self) -> Optional[float]:
        """Percentage increase of the duration versus the no-sleep baseline.

        This is the metric of Fig. 9a.  ``None`` when no baseline duration
        was attached to the record.
        """
        if self.baseline_duration_s is None or self.baseline_duration_s <= 0:
            return None
        return 100.0 * (self.duration_s - self.baseline_duration_s) / self.baseline_duration_s

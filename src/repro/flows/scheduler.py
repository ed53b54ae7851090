"""Bandwidth sharing and flow progress.

Each gateway's ADSL backhaul is shared among the flows routed through it
using max-min fairness, with every flow additionally capped by the wireless
hop between its client and the gateway.  The scheduler advances flow state
in discrete steps driven by the network simulator.

The implementation is incremental rather than per-step: in-flight flows
are six-slot list records (:mod:`repro.flows.flow`) kept grouped by
gateway (the seed rebuilt that grouping from scratch every step), and each
flow's max-min share is cached in its record and only recomputed for
gateways whose flow set or online status changed.  Serving has one exact
path: every serving gateway's flows are capped at their remaining bytes
and tested for completion at every step, as the seed does.  A finished
flow leaves three completion columns behind (its trace flow, its gateway
and its completion instant) instead of its record, from which
:meth:`FlowScheduler.records` builds the result records on demand.  The
per-flow arithmetic (including the iterative water-filling used for
in-simulator rate computation) reproduces the seed bit for bit.

:func:`max_min_allocation` is the public allocator: the seed's argument
checks in front of :func:`_water_fill`, the seed's iterative water-filling
that the scheduler also runs, so both produce the seed's rates bit for bit.
"""

from __future__ import annotations

from array import array
from operator import itemgetter
from typing import Dict, List, Optional, Sequence, Set

from repro.flows.flow import (
    ADMISSION_INDEX,
    GATEWAY_ID,
    RATE_BPS,
    REMAINING_BYTES,
    TRACE_FLOW,
    WIRELESS_CAPACITY_BPS,
    FlowRecord,
)
from repro.traces.models import Flow

#: A flow with fewer remaining bytes is considered complete (seed semantics).
_DONE_BYTES = 1e-9


def _water_fill(capacity_bps: float, caps_bps: Sequence[float]) -> List[float]:
    """The seed's iterative water-filling loop, without argument validation.

    The scheduler runs it for an online gateway with two or more flows when
    some flow's wireless cap is at or below the equal share; with the 12
    and 6 Mb/s wireless links of Sec. 5.1 that takes a backhaul of at least
    12 Mb/s (``backhaul_scale >= 2``).  The arithmetic, and so every
    produced rate, is bit-identical to the seed's allocator, kept as
    :func:`repro.simulation.reference_kernel.reference_max_min_allocation`.
    """
    n = len(caps_bps)
    if capacity_bps <= 1e-12:
        return [0.0] * n
    allocation = [0.0] * n
    remaining = capacity_bps
    unsatisfied = [i for i in range(n) if caps_bps[i] > 0]
    while unsatisfied and remaining > 1e-12:
        share = remaining / len(unsatisfied)
        bottlenecked = [i for i in unsatisfied if caps_bps[i] - allocation[i] <= share]
        if bottlenecked:
            for i in bottlenecked:
                remaining -= caps_bps[i] - allocation[i]
                allocation[i] = caps_bps[i]
            unsatisfied = [i for i in unsatisfied if i not in set(bottlenecked)]
        else:
            for i in unsatisfied:
                allocation[i] += share
            remaining = 0.0
    return allocation


def max_min_allocation(capacity_bps: float, caps_bps: Sequence[float]) -> List[float]:
    """Max-min fair allocation of ``capacity_bps`` under per-flow caps.

    Repeatedly gives every unsatisfied flow an equal share of the remaining
    capacity; flows whose cap is below the share get exactly their cap and
    drop out.  The scheduler calls :func:`_water_fill` directly; the tests
    hold this checked entry point to the seed's allocator.
    """
    if capacity_bps < 0:
        raise ValueError("capacity must be non-negative")
    if any(c < 0 for c in caps_bps):
        raise ValueError("caps must be non-negative")
    return _water_fill(capacity_bps, caps_bps)


class FlowScheduler:
    """Tracks in-flight flows and shares gateway backhauls among them."""

    def __init__(self, backhaul_bps: float):
        if backhaul_bps <= 0:
            raise ValueError("backhaul_bps must be positive")
        self.backhaul_bps = backhaul_bps
        #: gateway id -> in-flight flow records routed through it, in
        #: admission order.
        self._groups: Dict[int, List[list]] = {}
        #: Completion columns, one entry per finished flow in completion
        #: order: the trace flow, the gateway that served it and the instant
        #: its last byte arrived.  Each record is freed as it completes.
        self._done_flows: List[Flow] = []
        self._done_gateways: List[int] = []
        self._done_times = array("d")
        #: Served demand, counted as flows complete: what a sweep stores,
        #: without building a :class:`FlowRecord` per flow.  Exact integers
        #: (``Flow.size_bytes`` is an ``int``), so any summation order agrees.
        self.served_flows = 0
        self.served_bytes = 0
        self._n_active = 0
        #: Gateways whose cached rates are stale.
        self._dirty: Set[int] = set()
        #: Identity of the online set the cached rates were computed for.
        self._online_ref: Optional[Set[int]] = None
        self._online_members: Set[int] = set()
        #: Gateways whose flows are served, in serving order: those with a
        #: flow at a positive rate.  The values carry nothing.
        self._serving: Dict[int, None] = {}
        #: Global admission counter (stamps each record's admission index).
        self._admit_counter = 0
        #: Rate-cache accounting: how many per-gateway recomputations ran
        #: (O(changes) sites only) vs. ``ensure_rates`` calls fully served
        #: by the cache.  Plain integers the obs layer reads post-run.
        self.rate_recomputes = 0
        self.rate_cache_hits = 0

    # ------------------------------------------------------------------
    @property
    def active_flows(self) -> List[list]:
        """Records of the flows that still have bytes to transfer."""
        return [flow for group in self._groups.values() for flow in group]

    def admit(self, flow: Flow, gateway_id: int, wireless_capacity_bps: float) -> list:
        """Route a trace flow through ``gateway_id``; returns its record.

        The kernel's admission loop builds the same record inline.
        """
        if wireless_capacity_bps <= 0:
            raise ValueError("wireless_capacity_bps must be positive")
        record = [
            float(flow.size_bytes), 0.0, wireless_capacity_bps, gateway_id, flow,
            self._admit_counter,
        ]
        group = self._groups.get(gateway_id)
        if group is None:
            self._groups[gateway_id] = [record]
        else:
            group.append(record)
        self._admit_counter += 1
        self._dirty.add(gateway_id)
        self._n_active += 1
        return record

    def migrate(self, flow: list, gateway_id: int, wireless_capacity_bps: float) -> None:
        """Move an in-flight flow to another gateway (Optimal scheme and
        churn rescue)."""
        if wireless_capacity_bps <= 0:
            raise ValueError("wireless_capacity_bps must be positive")
        self._remove_from_group(flow)
        flow[GATEWAY_ID] = gateway_id
        flow[WIRELESS_CAPACITY_BPS] = wireless_capacity_bps
        flow[RATE_BPS] = 0.0
        new_group = self._groups.get(gateway_id)
        if new_group is None:
            self._groups[gateway_id] = [flow]
        else:
            new_group.append(flow)
        self._dirty.add(gateway_id)

    def _remove_from_group(self, flow: list) -> None:
        """Detach a flow from its gateway group and mark the rates stale.

        When the group empties, the gateway stops serving; either way the
        gateway is dirty, so the next ``ensure_rates`` re-derives its
        rates before any consumer reads them.
        """
        gateway_id = flow[GATEWAY_ID]
        group = self._groups.get(gateway_id, ())
        for index, member in enumerate(group):
            if member is flow:
                break
        else:
            raise ValueError("flow is not active in this scheduler")
        del group[index]
        if not group:
            del self._groups[gateway_id]
            self._serving.pop(gateway_id, None)
        self._dirty.add(gateway_id)

    def cancel(self, flow: list) -> None:
        """Drop an in-flight flow without recording a completion.

        Used by churn events (a subscriber cancels, a gateway disappears
        with no rescue target): the flow simply ceases to exist — it never
        appears in :meth:`records`.
        """
        self._remove_from_group(flow)
        self._n_active -= 1

    def cancel_client(self, client_id: int) -> int:
        """Cancel every in-flight flow of ``client_id``; returns the count."""
        doomed = [
            flow
            for group in self._groups.values()
            for flow in group
            if flow[TRACE_FLOW].client_id == client_id
        ]
        for flow in doomed:
            self.cancel(flow)
        return len(doomed)

    def clients_with_traffic(self) -> Set[int]:
        """Clients that have at least one active flow."""
        return {
            flow[TRACE_FLOW].client_id
            for group in self._groups.values()
            for flow in group
        }

    def client_demand_bps(self, horizon_s: float = 60.0) -> Dict[int, float]:
        """Per-client aggregate demand over a horizon (d_i of Eq. 1)."""
        if horizon_s <= 0:
            raise ValueError("horizon_s must be positive")
        # Accumulate in global admission order (the seed iterated its flat
        # flow list), so repeated-addition rounding matches it bit for bit.
        flows = [flow for group in self._groups.values() for flow in group]
        flows.sort(key=itemgetter(ADMISSION_INDEX))
        demand: Dict[int, float] = {}
        get = demand.get
        for flow in flows:
            client = flow[TRACE_FLOW].client_id
            demand[client] = get(client, 0.0) + flow[REMAINING_BYTES] * 8.0 / horizon_s
        return demand

    # ------------------------------------------------------------------
    # Rate maintenance
    # ------------------------------------------------------------------
    def ensure_rates(self, online_gateways: Set[int]) -> None:
        """Recompute the cached per-flow rates where anything changed.

        Passing the *same set object* for ``online_gateways`` as the last
        call signals an unchanged online set; a different object is diffed
        against the previous membership and only affected gateways are
        recomputed.
        """
        if online_gateways is not self._online_ref:
            if self._online_ref is None:
                self._dirty.update(self._groups)
            else:
                for gateway_id in online_gateways ^ self._online_members:
                    if gateway_id in self._groups:
                        self._dirty.add(gateway_id)
            self._online_ref = online_gateways
            self._online_members = set(online_gateways)
        if not self._dirty:
            self.rate_cache_hits += 1
            return
        self.rate_recomputes += len(self._dirty)
        groups = self._groups
        serving = self._serving
        online = self._online_members
        capacity = self.backhaul_bps
        for gateway_id in self._dirty:
            group = groups.get(gateway_id)
            if group is not None and len(group) == 1 and gateway_id in online:
                # Single flow (the vast majority of recomputes): water-filling
                # degenerates to min(cap, capacity) with no arithmetic, exactly
                # as the reference computes it.  Both are positive (admission
                # and migration check the cap), so the gateway serves.
                flow = group[0]
                rate = flow[WIRELESS_CAPACITY_BPS]
                if rate > capacity:
                    rate = capacity
                flow[RATE_BPS] = rate
                serving[gateway_id] = None
            else:
                self._recompute_gateway(gateway_id)
        self._dirty.clear()

    def _recompute_gateway(self, gateway_id: int) -> None:
        group = self._groups.get(gateway_id)
        if not group:
            self._serving.pop(gateway_id, None)
            return
        if gateway_id not in self._online_members:
            for flow in group:
                flow[RATE_BPS] = 0.0
            self._serving.pop(gateway_id, None)
            return
        # An online gateway with one flow is rated inline by ensure_rates,
        # so this one carries two or more.
        capacity = self.backhaul_bps
        caps = [flow[WIRELESS_CAPACITY_BPS] for flow in group]
        share = capacity / len(caps)
        if capacity > 1e-12 and min(caps) > share:
            # No flow is bottlenecked by its wireless hop: the reference
            # loop hands out one equal share in a single round (the common
            # case on a saturated aggregation gateway).
            for flow in group:
                flow[RATE_BPS] = share
            self._serving[gateway_id] = None
            return
        rates = _water_fill(capacity, caps)
        for flow, rate in zip(group, rates):
            flow[RATE_BPS] = rate
        if max(rates) > 0:
            self._serving[gateway_id] = None
        else:
            self._serving.pop(gateway_id, None)

    # ------------------------------------------------------------------
    # Stepping
    # ------------------------------------------------------------------
    def step(self, now: float, dt: float, online_gateways: Set[int]) -> Dict[int, float]:
        """Advance all flows by ``dt`` seconds starting at ``now``.

        Flows whose gateway is not online make no progress (they are waiting
        for the gateway to wake up).  Returns the bits served per gateway;
        completions land in :meth:`records`.
        """
        if dt < 0:
            raise ValueError("dt must be non-negative")
        if dt == 0 or self._n_active == 0:
            return {}
        # Defensive copy: ensure_rates detects online-set changes by object
        # identity (callers like the simulator pass a stable cached set);
        # step() callers may mutate one set in place between calls.
        self.ensure_rates(set(online_gateways))
        return self.serve(now, dt)

    def serve(self, now: float, dt: float) -> Dict[int, float]:
        """Serve flows over the step of length ``dt`` starting at ``now``.

        Rates must already be ensured.  Returns the bits served per serving
        gateway; the per-flow arithmetic is bit-identical to the seed
        kernel's ``ActiveFlow.serve`` call sequence.  Each completion is
        recorded in the completion columns where it is found.  A gateway
        that drained is not marked dirty: it leaves no group and stops
        serving, so recomputing its rates would find nothing to do.
        """
        groups = self._groups
        totals: Dict[int, float] = {}
        drained: List[int] = []
        done_flows = self._done_flows
        done_gateways = self._done_gateways
        done_times = self._done_times
        done_before = len(done_flows)
        served_bytes = self.served_bytes
        remaining_slot = REMAINING_BYTES
        rate_slot = RATE_BPS
        for gateway_id in self._serving:
            group = groups[gateway_id]
            if len(group) == 1:
                # Solo flow: the most common shape, also of completions.
                flow = group[0]
                remaining = flow[remaining_slot]
                rate = flow[rate_slot]
                bits = rate * dt
                if bits > remaining * 8.0:
                    bits = remaining * 8.0
                remaining -= bits / 8.0
                flow[remaining_slot] = remaining
                totals[gateway_id] = bits
                if remaining <= _DONE_BYTES:
                    served_for = bits / rate if rate > 0 else dt
                    trace_flow = flow[TRACE_FLOW]
                    done_flows.append(trace_flow)
                    done_gateways.append(gateway_id)
                    done_times.append(now + (dt if dt < served_for else served_for))
                    served_bytes += trace_flow.size_bytes
                    drained.append(gateway_id)
                continue
            total = 0.0
            finished = 0
            for flow in group:
                remaining = flow[remaining_slot]
                rate = flow[rate_slot]
                bits = rate * dt
                if bits > remaining * 8.0:
                    bits = remaining * 8.0
                remaining -= bits / 8.0
                flow[remaining_slot] = remaining
                total += bits
                if remaining <= _DONE_BYTES:
                    served_for = bits / rate if rate > 0 else dt
                    trace_flow = flow[TRACE_FLOW]
                    done_flows.append(trace_flow)
                    done_gateways.append(gateway_id)
                    done_times.append(now + (dt if dt < served_for else served_for))
                    served_bytes += trace_flow.size_bytes
                    finished += 1
            totals[gateway_id] = total
            if finished:
                if finished == len(group):
                    drained.append(gateway_id)
                else:
                    group[:] = [flow for flow in group if flow[remaining_slot] > _DONE_BYTES]
                    self._dirty.add(gateway_id)
        serving = self._serving
        for gateway_id in drained:
            del groups[gateway_id]
            del serving[gateway_id]
        completed = len(done_flows) - done_before
        if completed:
            self._n_active -= completed
            self.served_flows += completed
            self.served_bytes = served_bytes
        return totals

    #: The sweep benchmark's layer table wraps ``serve_single`` by name;
    #: this alias keeps that target until the benchmark drops it.
    serve_single = serve

    # ------------------------------------------------------------------
    def records(self) -> List[FlowRecord]:
        """Completion records of all finished flows, in completion order."""
        make = FlowRecord._make  # tuple construction without __new__ overhead
        return [
            make((flow_id, client_id, gateway_id, size_bytes, start_time, instant))
            for (flow_id, client_id, start_time, size_bytes, _kind), gateway_id, instant
            in zip(self._done_flows, self._done_gateways, self._done_times)
        ]

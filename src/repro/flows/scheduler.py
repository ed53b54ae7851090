"""Bandwidth sharing and flow progress.

Each gateway's ADSL backhaul is shared among the flows routed through it
using max-min fairness, with every flow additionally capped by the wireless
hop between its client and the gateway.  The scheduler advances flow state
in discrete steps driven by the network simulator.

The implementation is incremental rather than per-step: flows are kept
grouped by gateway (the seed rebuilt that grouping from scratch every
step), each flow's max-min share is cached on the flow and only recomputed
for gateways whose flow set or online status changed, and the earliest
possible completion instant per gateway is tracked so the ordinary serving
step is a tight multiply-subtract loop with no completion bookkeeping.
The per-flow arithmetic (including the iterative water-filling used for
in-simulator rate computation) reproduces the seed bit for bit.

:func:`max_min_allocation` is the public allocator: the seed's argument
checks in front of :func:`_water_fill`, the seed's iterative water-filling
that the scheduler also runs, so both produce the seed's rates bit for bit.
"""

from __future__ import annotations

from math import inf
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.flows.flow import ActiveFlow, FlowRecord

#: A flow with fewer remaining bytes is considered complete (seed semantics).
_DONE_BYTES = 1e-9

#: Safety margin (seconds) between the analytically predicted earliest
#: completion and the instant the exact step-wise arithmetic can reach it.
_COMPLETION_MARGIN_S = 1e-6


def _water_fill(capacity_bps: float, caps_bps: Sequence[float]) -> List[float]:
    """The seed's iterative water-filling loop, without argument validation.

    Used on the scheduler's hot path where the inputs are known valid; the
    arithmetic (and therefore every produced rate) is bit-identical to the
    seed's allocator, kept as
    :func:`repro.simulation.reference_kernel.reference_max_min_allocation`.
    """
    n = len(caps_bps)
    if capacity_bps <= 1e-12:
        return [0.0] * n
    if n == 2:
        # The two-flow case is by far the most common beyond singletons;
        # this branch replays the reference loop's exact float operations.
        a, b = caps_bps
        if a > 0 and b > 0:
            share = capacity_bps / 2
            a_fits = a <= share
            b_fits = b <= share
            if a_fits and b_fits:
                return [a, b]
            if a_fits:
                remaining = capacity_bps - a
                if remaining > 1e-12:
                    return [a, b if b <= remaining else remaining]
                return [a, 0.0]
            if b_fits:
                remaining = capacity_bps - b
                if remaining > 1e-12:
                    return [a if a <= remaining else remaining, b]
                return [0.0, b]
            return [share, share]
        if a > 0:
            return [a if a <= capacity_bps else capacity_bps, 0.0]
        if b > 0:
            return [0.0, b if b <= capacity_bps else capacity_bps]
        return [0.0, 0.0]
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
    drop out.
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
        #: gateway id -> flows routed through it, in admission order.
        self._groups: Dict[int, List[ActiveFlow]] = {}
        self._completed: List[ActiveFlow] = []
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
        #: Earliest (analytic) completion instant per serving gateway.
        self._gw_completion: Dict[int, float] = {}
        #: Global admission counter (stamps ActiveFlow.admission_index).
        self._admit_counter = 0
        #: Rate-cache accounting: how many per-gateway recomputations ran
        #: (O(changes) sites only) vs. ``ensure_rates`` calls fully served
        #: by the cache.  Plain integers the obs layer reads post-run.
        self.rate_recomputes = 0
        self.rate_cache_hits = 0

    # ------------------------------------------------------------------
    @property
    def active_flows(self) -> List[ActiveFlow]:
        """Flows that still have bytes to transfer."""
        return [flow for group in self._groups.values() for flow in group]

    def admit(self, flow: ActiveFlow) -> None:
        """Add a new flow to the system."""
        if flow.remaining_bytes <= _DONE_BYTES:
            raise ValueError("cannot admit an already-completed flow")
        gateway_id = flow.gateway_id
        group = self._groups.get(gateway_id)
        if group is None:
            self._groups[gateway_id] = [flow]
        else:
            group.append(flow)
        flow.admission_index = self._admit_counter
        self._admit_counter += 1
        self._dirty.add(gateway_id)
        self._n_active += 1

    def migrate(self, flow: ActiveFlow, gateway_id: int, wireless_capacity_bps: float) -> None:
        """Move an in-flight flow to another gateway (Optimal scheme and
        churn rescue)."""
        if wireless_capacity_bps <= 0:
            raise ValueError("wireless_capacity_bps must be positive")
        self._remove_from_group(flow)
        flow.gateway_id = gateway_id
        flow.wireless_capacity_bps = wireless_capacity_bps
        flow.rate_bps = 0.0
        new_group = self._groups.get(gateway_id)
        if new_group is None:
            self._groups[gateway_id] = [flow]
        else:
            new_group.append(flow)
        self._dirty.add(gateway_id)

    def _remove_from_group(self, flow: ActiveFlow) -> None:
        """Detach a flow from its gateway group and mark the rates stale.

        When the group empties, the gateway's completion entry goes with
        it; either way the gateway is dirty, so the next ``ensure_rates``
        re-derives rates and the completion horizon before any consumer
        reads them.
        """
        gateway_id = flow.gateway_id
        group = self._groups.get(gateway_id)
        if group is None or flow not in group:
            raise ValueError("flow is not active in this scheduler")
        group.remove(flow)
        if not group:
            del self._groups[gateway_id]
            self._gw_completion.pop(gateway_id, None)
        self._dirty.add(gateway_id)

    def cancel(self, flow: ActiveFlow) -> None:
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
            if flow.flow.client_id == client_id
        ]
        for flow in doomed:
            self.cancel(flow)
        return len(doomed)

    def clients_with_traffic(self) -> Set[int]:
        """Clients that have at least one active flow."""
        return {
            flow.flow.client_id for group in self._groups.values() for flow in group
        }

    def client_demand_bps(self, horizon_s: float = 60.0) -> Dict[int, float]:
        """Per-client aggregate demand over a horizon (d_i of Eq. 1)."""
        if horizon_s <= 0:
            raise ValueError("horizon_s must be positive")
        # Accumulate in global admission order (the seed iterated its flat
        # flow list), so repeated-addition rounding matches it bit for bit.
        flows = [flow for group in self._groups.values() for flow in group]
        flows.sort(key=lambda flow: flow.admission_index)
        demand: Dict[int, float] = {}
        get = demand.get
        for flow in flows:
            client = flow.flow.client_id
            demand[client] = get(client, 0.0) + flow.remaining_bytes * 8.0 / horizon_s
        return demand

    # ------------------------------------------------------------------
    # Rate maintenance
    # ------------------------------------------------------------------
    def ensure_rates(self, now: float, online_gateways: Set[int]) -> None:
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
        gw_completion = self._gw_completion
        online = self._online_members
        capacity = self.backhaul_bps
        for gateway_id in self._dirty:
            group = groups.get(gateway_id)
            if group is not None and len(group) == 1 and gateway_id in online:
                # Inlined single-flow case (the vast majority of recomputes):
                # water-filling degenerates to min(cap, capacity) with no
                # arithmetic, exactly as the reference computes it.
                flow = group[0]
                rate = flow.wireless_capacity_bps
                if rate > capacity:
                    rate = capacity
                flow.rate_bps = rate
                if rate > 0:
                    if flow.first_service_time is None:
                        flow.first_service_time = now
                    gw_completion[gateway_id] = now + flow.remaining_bytes * 8.0 / rate
                else:
                    gw_completion.pop(gateway_id, None)
            else:
                self._recompute_gateway(gateway_id, now)
        self._dirty.clear()

    def _recompute_gateway(self, gateway_id: int, now: float) -> None:
        group = self._groups.get(gateway_id)
        if not group:
            self._gw_completion.pop(gateway_id, None)
            return
        if gateway_id not in self._online_members:
            for flow in group:
                flow.rate_bps = 0.0
            self._gw_completion.pop(gateway_id, None)
            return
        capacity = self.backhaul_bps
        earliest = inf
        if len(group) == 1:
            flow = group[0]
            # Single flow: water-filling degenerates to min(cap, capacity)
            # with no arithmetic, exactly as the reference computes it.
            rate = flow.wireless_capacity_bps
            if rate > capacity:
                rate = capacity
            flow.rate_bps = rate
            if rate > 0:
                if flow.first_service_time is None:
                    flow.first_service_time = now
                earliest = now + flow.remaining_bytes * 8.0 / rate
        else:
            caps = [flow.wireless_capacity_bps for flow in group]
            count = len(caps)
            share = capacity / count
            if capacity > 1e-12 and min(caps) > share:
                # No flow is bottlenecked by its wireless hop: the reference
                # loop hands out one equal share in a single round (the
                # common case on a saturated aggregation gateway).
                min_remaining = inf
                for flow in group:
                    flow.rate_bps = share
                    if flow.first_service_time is None:
                        flow.first_service_time = now
                    if flow.remaining_bytes < min_remaining:
                        min_remaining = flow.remaining_bytes
                self._gw_completion[gateway_id] = now + min_remaining * 8.0 / share
                return
            first_cap = caps[0]
            if first_cap > 0 and all(cap == first_cap for cap in caps):
                # Equal caps degenerate to everyone's cap (or one share),
                # replaying the reference loop's exact arithmetic.
                uniform = first_cap if first_cap <= share else share
                if capacity <= 1e-12:
                    uniform = 0.0
                rates: Sequence[float] = (uniform,) * count
            else:
                rates = _water_fill(capacity, caps)
            for flow, rate in zip(group, rates):
                flow.rate_bps = rate
                if rate > 0:
                    if flow.first_service_time is None:
                        flow.first_service_time = now
                    instant = now + flow.remaining_bytes * 8.0 / rate
                    if instant < earliest:
                        earliest = instant
        if earliest is not inf:
            self._gw_completion[gateway_id] = earliest
        else:
            self._gw_completion.pop(gateway_id, None)

    # ------------------------------------------------------------------
    # Stepping
    # ------------------------------------------------------------------
    def step(
        self, now: float, dt: float, online_gateways: Set[int]
    ) -> Tuple[Dict[int, float], List[ActiveFlow]]:
        """Advance all flows by ``dt`` seconds ending at ``now + dt``.

        Flows whose gateway is not online make no progress (they are waiting
        for the gateway to wake up).  Returns the bits served per gateway and
        the list of flows that completed during this step.
        """
        if dt < 0:
            raise ValueError("dt must be non-negative")
        if dt == 0 or self._n_active == 0:
            return {}, []
        # Defensive copy: ensure_rates detects online-set changes by object
        # identity (callers like the simulator pass a stable cached set);
        # step() callers may mutate one set in place between calls.
        self.ensure_rates(now, set(online_gateways))
        return self.serve(now, now + dt, dt)

    def serve(
        self, now: float, end: float, dt: float
    ) -> Tuple[Dict[int, float], List[ActiveFlow]]:
        """Serve flows over the step of length ``dt`` ending at ``end``.

        Rates must already be ensured.  Returns the bits served per gateway
        and the flows that completed; the per-flow arithmetic is
        bit-identical to the seed kernel's ``ActiveFlow.serve`` call
        sequence.
        """
        groups = self._groups
        gw_completion = self._gw_completion
        totals: Dict[int, float] = {}
        completed: List[ActiveFlow] = []
        drained: List[int] = []
        for gateway_id, earliest in gw_completion.items():
            group = groups[gateway_id]
            if end < earliest - _COMPLETION_MARGIN_S:
                if len(group) == 1:
                    flow = group[0]
                    bits = flow.rate_bps * dt
                    flow.remaining_bytes -= bits / 8.0
                    totals[gateway_id] = bits
                else:
                    total = 0.0
                    for flow in group:
                        bits = flow.rate_bps * dt
                        flow.remaining_bytes -= bits / 8.0
                        total += bits
                    totals[gateway_id] = total
            elif len(group) == 1:
                # Careful path, solo flow (the most common completion shape).
                flow = group[0]
                remaining_bits = flow.remaining_bytes * 8.0
                rate = flow.rate_bps
                bits = rate * dt
                if bits > remaining_bits:
                    bits = remaining_bits
                flow.remaining_bytes -= bits / 8.0
                totals[gateway_id] = bits
                if flow.remaining_bytes <= _DONE_BYTES:
                    served_for = bits / rate if rate > 0 else dt
                    flow.completion_time = now + (dt if dt < served_for else served_for)
                    completed.append(flow)
                    self._n_active -= 1
                    drained.append(gateway_id)
                    self._dirty.add(gateway_id)
            else:
                total = 0.0
                finished: Optional[List[ActiveFlow]] = None
                for flow in group:
                    remaining_bits = flow.remaining_bytes * 8.0
                    rate = flow.rate_bps
                    bits = rate * dt
                    if bits > remaining_bits:
                        bits = remaining_bits
                    flow.remaining_bytes -= bits / 8.0
                    total += bits
                    if flow.remaining_bytes <= _DONE_BYTES:
                        served_for = bits / rate if rate > 0 else dt
                        flow.completion_time = now + (
                            dt if dt < served_for else served_for
                        )
                        if finished is None:
                            finished = [flow]
                        else:
                            finished.append(flow)
                totals[gateway_id] = total
                if finished:
                    completed.extend(finished)
                    self._n_active -= len(finished)
                    if len(finished) == len(group):
                        drained.append(gateway_id)
                    else:
                        for flow in finished:
                            group.remove(flow)
                    self._dirty.add(gateway_id)
        for gateway_id in drained:
            del groups[gateway_id]
            del gw_completion[gateway_id]
        if completed:
            self._record_completions(completed)
        return totals, completed

    #: The sweep benchmark's layer table wraps ``serve_single`` by name;
    #: this alias keeps that target until the benchmark drops it.
    serve_single = serve

    def _record_completions(self, completed: List[ActiveFlow]) -> None:
        """Keep finished flows for :meth:`records` and count what they served."""
        self._completed.extend(completed)
        self.served_flows += len(completed)
        # A plain loop: about half the cost of sum() over a generator here.
        served_bytes = self.served_bytes
        for active in completed:
            served_bytes += active.flow.size_bytes
        self.served_bytes = served_bytes

    # ------------------------------------------------------------------
    def records(self) -> List[FlowRecord]:
        """Completion records of all finished flows."""
        make = FlowRecord._make  # tuple construction without __new__ overhead
        records: List[FlowRecord] = []
        append = records.append
        for active in self._completed:
            flow = active.flow
            append(
                make(
                    (
                        flow.flow_id,
                        flow.client_id,
                        active.gateway_id,
                        flow.size_bytes,
                        flow.start_time,
                        active.completion_time,
                        None,
                    )
                )
            )
        return records

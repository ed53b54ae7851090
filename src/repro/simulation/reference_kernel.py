"""The seed (pre-vectorization) simulation kernel, preserved verbatim.

This module freezes the original pure-Python per-step kernel exactly as it
shipped in the seed tree: one Python loop over gateways per step for
serving, state stepping, energy charging and sampling, a per-step rebuild
of the flow-to-gateway map, and the O(n^2) water-filling allocator.

It exists as an independent oracle: the equivalence tests
(``tests/test_kernel_equivalence.py``) assert that the vectorized kernel
in :mod:`repro.simulation.simulator` reproduces the seed trajectory (same
savings, same online-gateway samples, same flow records), on small
scenarios and at paper scale for every named scheme.

Do not "optimise" this module: its value as an oracle is being the seed
kernel, unchanged.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.access.dslam import Dslam, SwitchingMode
from repro.access.gateway import Gateway
from repro.access.soi import SoIConfig
from repro.core.bh2 import BH2Terminal, GatewayObservation
from repro.core.optimal import AggregationProblem, GreedyAggregationSolver
from repro.core.schemes import AggregationKind, SchemeConfig, SwitchingKind
from repro.flows.flow import ActiveFlow, FlowRecord
from repro.power.energy import EnergyAccumulator
from repro.power.models import AccessNetworkPowerModel, DEFAULT_POWER_MODEL, PowerState
from repro.topology.scenario import DslamConfig, Scenario
from repro.traces.models import Flow


def reference_max_min_allocation(capacity_bps: float, caps_bps: Sequence[float]) -> List[float]:
    """The seed's iterative water-filling allocator (kept for comparison)."""
    if capacity_bps < 0:
        raise ValueError("capacity must be non-negative")
    n = len(caps_bps)
    if n == 0:
        return []
    if any(c < 0 for c in caps_bps):
        raise ValueError("caps must be non-negative")
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


class ReferenceFlowScheduler:
    """The seed's per-step, dict-rebuilding flow scheduler.

    The flow-service oracle: the tests drive it side by side with
    :class:`repro.flows.scheduler.FlowScheduler`.
    """

    def __init__(self, backhaul_bps: float):
        if backhaul_bps <= 0:
            raise ValueError("backhaul_bps must be positive")
        self.backhaul_bps = backhaul_bps
        self._active: List[ActiveFlow] = []
        self._completed: List[ActiveFlow] = []

    # ------------------------------------------------------------------
    @property
    def active_flows(self) -> List[ActiveFlow]:
        return list(self._active)

    @property
    def completed_flows(self) -> List[ActiveFlow]:
        return list(self._completed)

    def admit(self, flow: ActiveFlow) -> None:
        if flow.done:
            raise ValueError("cannot admit an already-completed flow")
        self._active.append(flow)

    def gateways_with_traffic(self) -> Set[int]:
        return {f.gateway_id for f in self._active}

    def client_demand_bps(self, horizon_s: float = 60.0) -> Dict[int, float]:
        if horizon_s <= 0:
            raise ValueError("horizon_s must be positive")
        demand: Dict[int, float] = defaultdict(float)
        for flow in self._active:
            demand[flow.client_id] += flow.remaining_bytes * 8.0 / horizon_s
        return dict(demand)

    # ------------------------------------------------------------------
    def step(
        self,
        now: float,
        dt: float,
        online_gateways: Set[int],
        backhaul_bps: Optional[Dict[int, float]] = None,
    ) -> Tuple[Dict[int, float], List[ActiveFlow]]:
        if dt < 0:
            raise ValueError("dt must be non-negative")
        served_per_gateway: Dict[int, float] = defaultdict(float)
        completed: List[ActiveFlow] = []
        if dt == 0:
            return dict(served_per_gateway), completed

        by_gateway: Dict[int, List[ActiveFlow]] = defaultdict(list)
        for flow in self._active:
            by_gateway[flow.gateway_id].append(flow)

        for gateway_id, flows in by_gateway.items():
            if gateway_id not in online_gateways:
                continue
            capacity = (
                backhaul_bps.get(gateway_id, self.backhaul_bps)
                if backhaul_bps is not None
                else self.backhaul_bps
            )
            caps = [f.wireless_capacity_bps for f in flows]
            rates = reference_max_min_allocation(capacity, caps)
            for flow, rate in zip(flows, rates):
                bits = flow.serve(rate, dt, now)
                served_per_gateway[gateway_id] += bits
                if flow.done:
                    completed.append(flow)

        if completed:
            done_ids = {id(f) for f in completed}
            self._active = [f for f in self._active if id(f) not in done_ids]
            self._completed.extend(completed)
        return dict(served_per_gateway), completed

    # ------------------------------------------------------------------
    def records(self) -> List[FlowRecord]:
        return [flow.to_record() for flow in self._completed]


class ReferenceAccessNetworkSimulator:
    """The seed's per-step simulator, preserved for equivalence testing."""

    MAX_IDLE_SKIP_S = 30.0

    def __init__(
        self,
        scenario: Scenario,
        scheme: SchemeConfig,
        power_model: AccessNetworkPowerModel = DEFAULT_POWER_MODEL,
        step_s: float = 1.0,
        sample_interval_s: float = 60.0,
        seed: int = 0,
    ):
        if step_s <= 0 or sample_interval_s <= 0:
            raise ValueError("step_s and sample_interval_s must be positive")
        self.scenario = scenario
        self.scheme = scheme
        self.power_model = power_model
        self.step_s = step_s
        self.sample_interval_s = sample_interval_s
        self.seed = seed
        self._rng = np.random.default_rng(seed)

        soi = scheme.soi
        if scheme.idealized_transitions:
            soi = SoIConfig(idle_timeout_s=0.0, wake_up_time_s=0.0)
        self.gateways: Dict[int, Gateway] = {
            g: Gateway(
                gateway_id=g,
                backhaul_bps=scenario.wireless.backhaul_bps,
                soi=soi,
                sleep_enabled=scheme.sleep_enabled,
                load_window_s=scheme.bh2.load_window_s,
                initially_sleeping=scheme.sleep_enabled,
            )
            for g in range(scenario.num_gateways)
        }
        self.dslam = Dslam(
            config=self._dslam_config(),
            line_ports=dict(scenario.gateway_port),
        )
        self.scheduler = ReferenceFlowScheduler(backhaul_bps=scenario.wireless.backhaul_bps)

        self.selected_gateway: Dict[int, int] = dict(scenario.trace.home_gateway)
        self.fallback_gateway: Dict[int, Optional[int]] = {c: None for c in self.selected_gateway}
        self.terminals: Dict[int, BH2Terminal] = {}
        if scheme.aggregation is AggregationKind.BH2:
            for client, home in scenario.trace.home_gateway.items():
                self.terminals[client] = BH2Terminal(
                    client_id=client,
                    home_gateway=home,
                    reachable_gateways=scenario.topology.reachable[client],
                    config=scheme.bh2,
                    rng=np.random.default_rng(self._rng.integers(2**31 - 1)),
                )
        self._optimal_solver = GreedyAggregationSolver()
        self._next_optimal_at = 0.0
        self._optimal_online: Set[int] = set()

        self._arrivals: List[Flow] = scenario.trace.all_flows()
        self._arrival_index = 0
        self._upcoming_demand: Dict[int, Dict[int, float]] = {}
        if scheme.aggregation is AggregationKind.OPTIMAL:
            self._upcoming_demand = self._precompute_period_demand()

        self.energy = EnergyAccumulator(
            interval_seconds=sample_interval_s, horizon=scenario.trace.duration
        )
        self._samples: List[Tuple[float, int, int, int, int]] = []
        self.steps_taken = 0

    # ------------------------------------------------------------------
    def _dslam_config(self) -> DslamConfig:
        base = self.scenario.dslam
        if self.scheme.switching is SwitchingKind.NONE:
            return base.with_switch(None, full=False)
        if self.scheme.switching is SwitchingKind.FULL:
            return base.with_switch(None, full=True)
        return base.with_switch(base.switch_size or 4, full=False)

    # ------------------------------------------------------------------
    def run(self, until: Optional[float] = None):
        horizon = self.scenario.trace.duration if until is None else min(
            until, self.scenario.trace.duration
        )
        now = 0.0
        next_sample = 0.0
        while now < horizon:
            if now >= next_sample:
                self._record_sample(now)
                next_sample += self.sample_interval_s
            dt = self._next_dt(now, next_sample, horizon)
            self._admit_arrivals(now)
            if self.scheme.aggregation is AggregationKind.BH2:
                self._run_bh2_decisions(now)
            elif self.scheme.aggregation is AggregationKind.OPTIMAL and now >= self._next_optimal_at:
                self._run_optimal(now)
                self._next_optimal_at += self.scheme.optimal_period_s
            self._serve_flows(now, dt)
            self._step_gateways(now, dt)
            self._update_dslam()
            self._charge_energy(now, dt)
            now += dt
            self.steps_taken += 1
        self._record_sample(min(now, horizon))
        return self._build_result(horizon)

    # ------------------------------------------------------------------
    def _admit_arrivals(self, now: float) -> None:
        while (
            self._arrival_index < len(self._arrivals)
            and self._arrivals[self._arrival_index].start_time <= now
        ):
            flow = self._arrivals[self._arrival_index]
            self._arrival_index += 1
            self._route_flow(flow, now)

    def _route_flow(self, flow: Flow, now: float) -> None:
        client = flow.client_id
        gateway_id = self._routing_gateway(client, now)
        home = self.scenario.trace.home_gateway[client]
        is_home = gateway_id == home
        capacity = self.scenario.wireless.wireless_capacity(is_home)
        active = ActiveFlow(flow=flow, gateway_id=gateway_id, wireless_capacity_bps=capacity)
        self.scheduler.admit(active)
        gateway = self.gateways[gateway_id]
        if gateway.is_sleeping:
            gateway.request_wake(now)
        gateway.touch(now)

    def _routing_gateway(self, client: int, now: float) -> int:
        home = self.scenario.trace.home_gateway[client]
        selected = self.selected_gateway.get(client, home)
        gateway = self.gateways[selected]
        if gateway.is_online:
            self.fallback_gateway[client] = None
            return selected
        if selected == home:
            return home
        if gateway.is_waking:
            fallback = self.fallback_gateway.get(client)
            if fallback is not None and self.gateways[fallback].is_online:
                return fallback
            return selected
        if self.scheme.aggregation is AggregationKind.OPTIMAL:
            alternative = self._best_online_gateway(client)
            if alternative is not None:
                self.selected_gateway[client] = alternative
                return alternative
        self.selected_gateway[client] = home
        self.fallback_gateway[client] = None
        return home

    def _best_online_gateway(self, client: int) -> Optional[int]:
        candidates = [
            g
            for g in self.scenario.topology.reachable[client]
            if self.gateways[g].is_online
        ]
        if not candidates:
            return None
        return min(candidates, key=lambda g: self.gateways[g].utilization(self._now_hint))

    # ------------------------------------------------------------------
    def _run_bh2_decisions(self, now: float) -> None:
        due = [t for t in self.terminals.values() if t.decision_due(now)]
        if not due:
            return
        observations = self._gateway_observations(now)
        clients_with_flows = {f.client_id for f in self.scheduler.active_flows}
        for terminal in due:
            previous = terminal.current_gateway
            decision = terminal.decide(now, observations)
            client = terminal.client_id
            if decision.selected_gateway != previous:
                if decision.wake_home and client in clients_with_flows:
                    self.gateways[terminal.home_gateway].request_wake(now)
                    if self.gateways[previous].is_online:
                        self.fallback_gateway[client] = previous
                else:
                    self.fallback_gateway[client] = None
            self.selected_gateway[client] = decision.selected_gateway

    def _gateway_observations(self, now: float) -> Dict[int, GatewayObservation]:
        observations = {}
        for gateway_id, gateway in self.gateways.items():
            observations[gateway_id] = GatewayObservation(
                gateway_id=gateway_id,
                online=gateway.is_online,
                load=gateway.utilization(now) if gateway.is_online else 0.0,
            )
        return observations

    def _precompute_period_demand(self) -> Dict[int, Dict[int, float]]:
        period = self.scheme.optimal_period_s
        demand: Dict[int, Dict[int, float]] = {}
        for flow in self._arrivals:
            index = int(flow.start_time // period)
            bucket = demand.setdefault(index, {})
            bucket[flow.client_id] = bucket.get(flow.client_id, 0.0) + flow.size_bytes * 8.0 / period
        return demand

    def _run_optimal(self, now: float) -> None:
        period_index = int(now // self.scheme.optimal_period_s)
        demands = dict(self._upcoming_demand.get(period_index, {}))
        for client, backlog in self.scheduler.client_demand_bps(
            horizon_s=self.scheme.optimal_period_s
        ).items():
            demands[client] = demands.get(client, 0.0) + backlog
        if not demands:
            self._optimal_online = set()
            return
        cap = self.scenario.wireless.backhaul_bps
        demands = {c: min(d, cap) for c, d in demands.items()}
        topology = self.scenario.topology
        wireless: Dict[Tuple[int, int], float] = {}
        for client in demands:
            home = topology.home_gateway[client]
            for gateway in topology.reachable[client]:
                wireless[(client, gateway)] = self.scenario.wireless.wireless_capacity(
                    gateway == home
                )
        problem = AggregationProblem(
            demands_bps=demands,
            capacities_bps={
                g: self.scenario.wireless.backhaul_bps for g in range(self.scenario.num_gateways)
            },
            wireless_bps=wireless,
            backup=self.scheme.bh2.backup,
            max_utilization=self.scheme.optimal_max_utilization,
        )
        solution = self._optimal_solver.solve(problem)
        self._optimal_online = set(solution.online_gateways)
        for gateway_id in solution.online_gateways:
            gateway = self.gateways[gateway_id]
            if gateway.is_sleeping:
                gateway.request_wake(now)
            gateway.touch(now)
        for flow in self.scheduler.active_flows:
            client = flow.client_id
            primary = solution.primary_gateway(client)
            if primary is not None and primary != flow.gateway_id:
                home = topology.home_gateway[client]
                flow.gateway_id = primary
                flow.wireless_capacity_bps = self.scenario.wireless.wireless_capacity(
                    primary == home
                )
        for client in demands:
            primary = solution.primary_gateway(client)
            if primary is not None:
                self.selected_gateway[client] = primary

    # ------------------------------------------------------------------
    def _serve_flows(self, now: float, dt: float) -> None:
        online = {g for g, gw in self.gateways.items() if gw.is_online}
        served, _completed = self.scheduler.step(now, dt, online)
        for gateway_id, bits in served.items():
            if bits > 0:
                self.gateways[gateway_id].record_traffic(bits, now + dt)

    def _step_gateways(self, now: float, dt: float) -> None:
        pending = self.scheduler.gateways_with_traffic()
        if self.scheme.aggregation is AggregationKind.OPTIMAL:
            pending = pending | self._optimal_online
        end = now + dt
        for gateway_id, gateway in self.gateways.items():
            gateway.step(end, dt, has_pending_traffic=gateway_id in pending)

    def _update_dslam(self) -> None:
        line_active = {
            g: not gw.is_sleeping for g, gw in self.gateways.items()
        }
        if self.dslam.mode is SwitchingMode.FIXED:
            return
        if self.scheme.idealized_transitions:
            movable = set(self.gateways)
        else:
            movable = {g for g, gw in self.gateways.items() if not gw.is_online}
        self.dslam.rewire(line_active, movable)

    def _charge_energy(self, now: float, dt: float) -> None:
        active = sum(1 for gw in self.gateways.values() if gw.state is PowerState.ACTIVE)
        waking = sum(1 for gw in self.gateways.values() if gw.state is PowerState.WAKING)
        modems_on = active + waking
        cards_on = len(self.dslam.online_cards(
            [g for g, gw in self.gateways.items() if not gw.is_sleeping]
        ))
        model = self.power_model
        self.energy.charge_at("gateway", model.user_side_power(active, waking), now, dt)
        self.energy.charge_at("isp_modem", modems_on * model.isp_modem.active_w, now, dt)
        self.energy.charge_at("line_card", cards_on * model.line_card.active_w, now, dt)
        self.energy.charge_at("dslam_shelf", model.dslam_shelf.active_w, now, dt)

    def _record_sample(self, now: float) -> None:
        active = sum(1 for gw in self.gateways.values() if gw.state is PowerState.ACTIVE)
        waking = sum(1 for gw in self.gateways.values() if gw.state is PowerState.WAKING)
        not_sleeping = [g for g, gw in self.gateways.items() if not gw.is_sleeping]
        cards_on = len(self.dslam.online_cards(not_sleeping))
        self._samples.append((now, active + waking, waking, len(not_sleeping), cards_on))

    # ------------------------------------------------------------------
    def _next_dt(self, now: float, next_sample: float, horizon: float) -> float:
        self._now_hint = now
        dt = self.step_s
        if self.scheduler.active_flows:
            return min(dt, horizon - now)
        candidates = [now + self.MAX_IDLE_SKIP_S, next_sample if next_sample > now else now + dt, horizon]
        if self._arrival_index < len(self._arrivals):
            candidates.append(self._arrivals[self._arrival_index].start_time)
        if self.scheme.aggregation is AggregationKind.OPTIMAL:
            candidates.append(self._next_optimal_at if self._next_optimal_at > now else now + dt)
        for gateway in self.gateways.values():
            transition = gateway.next_transition_time()
            if transition is not None and transition > now:
                candidates.append(transition)
        target = min(c for c in candidates if c > now)
        return max(self.step_s, min(target - now, self.MAX_IDLE_SKIP_S, horizon - now))

    # ------------------------------------------------------------------
    def _build_result(self, horizon: float):
        from repro.simulation.simulator import SimulationResult

        samples = np.array(self._samples, dtype=float)
        energy_times, energy_total = self.energy.timeseries()
        _times, energy_isp = self.energy.timeseries(
            categories=("isp_modem", "line_card", "dslam_shelf")
        )
        model = self.power_model
        baseline_power = model.no_sleep_power(
            num_gateways=self.scenario.num_gateways,
            num_line_cards=self.scenario.dslam.num_line_cards,
        )
        baseline_isp = model.isp_side_power(
            modems_online=self.scenario.num_gateways,
            line_cards_online=self.scenario.dslam.num_line_cards,
        )
        flow_records = self.scheduler.records()
        return SimulationResult(
            scheme_name=self.scheme.name,
            duration=horizon,
            num_gateways=self.scenario.num_gateways,
            num_line_cards=self.scenario.dslam.num_line_cards,
            sample_times=samples[:, 0] if samples.size else np.array([]),
            online_gateways=samples[:, 1] if samples.size else np.array([]),
            waking_gateways=samples[:, 2] if samples.size else np.array([]),
            online_modems=samples[:, 3] if samples.size else np.array([]),
            online_line_cards=samples[:, 4] if samples.size else np.array([]),
            energy=self.energy.breakdown(),
            energy_series_times=np.array(energy_times, dtype=float),
            energy_series_total_j=np.array(energy_total, dtype=float),
            energy_series_isp_j=np.array(energy_isp, dtype=float),
            flow_records=flow_records,
            gateway_online_seconds={
                g: gw.online_seconds + gw.waking_seconds for g, gw in self.gateways.items()
            },
            baseline_power_w=baseline_power,
            baseline_isp_power_w=baseline_isp,
            served_flows=len(flow_records),
            served_bytes=sum(record.size_bytes for record in flow_records),
            steps_taken=self.steps_taken,
        )

    _now_hint: float = 0.0


def run_scheme_reference(
    scenario: Scenario,
    scheme: SchemeConfig,
    seed: int = 0,
    step_s: float = 1.0,
    sample_interval_s: float = 60.0,
    until: Optional[float] = None,
    power_model: AccessNetworkPowerModel = DEFAULT_POWER_MODEL,
):
    """Run one scheme once over a scenario with the preserved seed kernel.

    The equivalence tests' oracle: they compare its result with
    :func:`repro.simulation.runner.run_scheme`'s on the same inputs.
    """
    simulator = ReferenceAccessNetworkSimulator(
        scenario=scenario,
        scheme=scheme,
        power_model=power_model,
        step_s=step_s,
        sample_interval_s=sample_interval_s,
        seed=seed,
    )
    return simulator.run(until=until)

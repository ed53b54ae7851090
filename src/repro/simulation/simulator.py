"""The trace-driven access-network simulator.

The simulator advances in time steps, as the seed kernel does: one grid
step (``step_s``) per iteration while a flow is in flight and, while none
is, a skip to the next flow arrival, metric sample, gateway transition or
*Optimal* solve (at most ``MAX_IDLE_SKIP_S``).  During every step it
admits newly arrived flows, runs the aggregation logic (BH2 terminal
decisions or the centralised optimal), shares each online gateway's
backhaul among its flows, advances the gateway Sleep-on-Idle state
machines, re-terminates lines through the HDF switches, and charges energy
to every device category.

The kernel is O(changes) per step where the seed kernel was O(devices) per
step:

* gateway state machines live in a
  :class:`~repro.access.gateway_array.GatewayArray` (state codes, wake
  deadlines, sliding-window traffic counters in parallel arrays) whose
  per-step work is a couple of scalar deadline comparisons,
* flow service uses the incremental cached rates of
  :class:`~repro.flows.scheduler.FlowScheduler` — rates are recomputed only
  for gateways whose flow set or power state changed,
* a BH2 round computes the load of only the gateways its due terminals
  examine (each one's current gateway and, when it looks for a target,
  the online gateways in its range),
* energy is charged per *constant-power segment* instead of per step,
  DSLAM re-wiring runs only when some gateway changed state and re-packs
  only the k-switches holding such a gateway's line, and
* a trace's sorted arrivals and the *Optimal* scheme's per-period demand
  are built once per trace and shared by every run over it.

The result reproduces the seed kernel's per-step trajectory exactly (same
transitions at the same grid instants, same traffic samples, same RNG
draws, bit-identical flow service); the preserved seed kernel in
:mod:`repro.simulation.reference_kernel` is the oracle the equivalence
tests compare against.
"""

from __future__ import annotations

import gc
from bisect import bisect_right
from collections.abc import Sequence as _SequenceABC
from dataclasses import dataclass, field
from heapq import heapify, heappop, heappush
from math import inf, isfinite
from typing import Dict, List, Optional, Set, Tuple

import numpy as np

from repro.access.dslam import Dslam, SwitchingMode
from repro.access.gateway_array import (
    GatewayArray,
    STATE_ACTIVE,
    STATE_SLEEPING,
    STATE_WAKING,
)
from repro.access.soi import SoIConfig
from repro.core.bh2 import BH2Terminal
from repro.core.optimal import AggregationProblem, GreedyAggregationSolver
from repro.core.schemes import AggregationKind, SchemeConfig, SwitchingKind
from repro.fleet.churn import EMPTY_TIMELINE
from repro.fleet.profile import HOMOGENEOUS
from repro.flows.flow import ActiveFlow, FlowRecord
from repro.flows.scheduler import FlowScheduler
from repro.power.energy import EnergyAccumulator, EnergyBreakdown
from repro.power.models import AccessNetworkPowerModel, DEFAULT_POWER_MODEL
from repro.topology.scenario import DslamConfig, Scenario
from repro.traces.models import Flow
from repro.wattopt.cost import WattCostModel
from repro.wattopt.solver import WattGreedyAggregationSolver
from repro.wireless.channel import WirelessChannel


class LazyFlowRecords(_SequenceABC):
    """List-like view that materialises flow records on first access.

    Records are built only when a caller reads ``flow_records``: a scheme
    comparison reads them from the first run of each scheme (figures,
    CDFs), and a sweep never does; it stores the result's ``served_flows``
    and ``served_bytes`` counters.  Building hundreds of thousands of
    :class:`FlowRecord` tuples eagerly per run would be wasted work.
    """

    __slots__ = ("_factory", "_records")

    def __init__(self, factory):
        self._factory = factory
        self._records: Optional[List[FlowRecord]] = None

    def _materialise(self) -> List[FlowRecord]:
        records = self._records
        if records is None:
            records = self._factory()
            self._records = records
            self._factory = None
        return records

    def __iter__(self):
        return iter(self._materialise())

    def __len__(self) -> int:
        return len(self._materialise())

    def __getitem__(self, index):
        return self._materialise()[index]

    def __eq__(self, other) -> bool:
        if isinstance(other, LazyFlowRecords):
            other = other._materialise()
        return self._materialise() == other

    def __reduce__(self):
        # Pickles as a plain list, materialised where the pickling happens.
        return (list, (self._materialise(),))

    def __repr__(self) -> str:
        return repr(self._materialise())


@dataclass
class SimulationResult:
    """Everything measured during one simulation run."""

    scheme_name: str
    duration: float
    num_gateways: int
    num_line_cards: int
    sample_times: np.ndarray
    online_gateways: np.ndarray
    waking_gateways: np.ndarray
    online_modems: np.ndarray
    online_line_cards: np.ndarray
    energy: EnergyBreakdown
    energy_series_times: np.ndarray
    energy_series_total_j: np.ndarray
    energy_series_isp_j: np.ndarray
    flow_records: List[FlowRecord]
    gateway_online_seconds: Dict[int, float]
    baseline_power_w: float
    baseline_isp_power_w: float
    #: Served demand: completed flows and the bytes they delivered.  They
    #: equal ``len(flow_records)`` and the records' summed ``size_bytes``
    #: but are counted as flows complete, so reading them builds no record.
    served_flows: int
    served_bytes: int
    #: Number of kernel iterations the run took: one per busy grid step or
    #: idle skip, as in the seed kernel.
    steps_taken: int = 0
    #: Energy charged to gateways of each fleet generation (joules).  With
    #: the homogeneous default fleet this holds one entry for all gateways.
    generation_energy_j: Dict[str, float] = field(default_factory=dict)
    #: Number of deployed gateways per fleet generation.
    generation_counts: Dict[str, int] = field(default_factory=dict)
    #: Flows lost to churn: cancelled in flight (departing gateway or
    #: unsubscribing client with no rescue target) or unroutable at
    #: admission because no reachable gateway was in service.
    dropped_flows: int = 0
    #: Trace arrivals never admitted because their client was out of
    #: service (unsubscribed, or not yet subscribed) at arrival time.
    suppressed_arrivals: int = 0
    #: Kernel event counters (plain integers maintained at the rare event
    #: sites whether or not anyone observes them; the obs layer reads
    #: them post-run, so they cost nothing extra on the hot path).
    solver_invocations: int = 0
    bh2_rounds: int = 0
    bh2_decisions: int = 0
    rate_recomputes: int = 0
    rate_cache_hits: int = 0

    # ------------------------------------------------------------------
    @property
    def sample_interval_s(self) -> float:
        """Spacing of the metric samples."""
        if len(self.sample_times) > 1:
            return float(self.sample_times[1] - self.sample_times[0])
        return self.duration

    def savings_timeseries(self) -> Tuple[np.ndarray, np.ndarray]:
        """Energy savings vs. the no-sleep baseline per interval (Fig. 6).

        Returns ``(times, percent_savings)``.
        """
        interval = np.diff(
            np.append(self.energy_series_times, self.energy_series_times[-1] + self._interval())
        ) if len(self.energy_series_times) else np.array([])
        baseline_j = self.baseline_power_w * interval
        with np.errstate(divide="ignore", invalid="ignore"):
            savings = 100.0 * (1.0 - self.energy_series_total_j / baseline_j)
        return self.energy_series_times, savings

    def isp_share_of_savings_timeseries(self) -> Tuple[np.ndarray, np.ndarray]:
        """Share of the per-interval savings contributed by the ISP side (Fig. 8)."""
        interval = self._interval()
        baseline_total = self.baseline_power_w * interval
        baseline_isp = self.baseline_isp_power_w * interval
        saved_total = baseline_total - self.energy_series_total_j
        saved_isp = baseline_isp - self.energy_series_isp_j
        share = np.zeros_like(saved_total)
        positive = saved_total > 1e-9
        share[positive] = 100.0 * np.clip(saved_isp[positive] / saved_total[positive], 0.0, 1.0)
        return self.energy_series_times, share

    def mean_savings(self, t_start: float = 0.0, t_end: Optional[float] = None) -> float:
        """Average energy savings (fraction) over a time window."""
        t_end = self.duration if t_end is None else t_end
        mask = (self.energy_series_times >= t_start) & (self.energy_series_times < t_end)
        if not mask.any():
            return 0.0
        consumed = float(self.energy_series_total_j[mask].sum())
        baseline = self.baseline_power_w * self._interval() * int(mask.sum())
        return 1.0 - consumed / baseline if baseline > 0 else 0.0

    def mean_isp_share_of_savings(self, t_start: float = 0.0, t_end: Optional[float] = None) -> float:
        """Average fraction of the savings contributed by the ISP side."""
        t_end = self.duration if t_end is None else t_end
        mask = (self.energy_series_times >= t_start) & (self.energy_series_times < t_end)
        if not mask.any():
            return 0.0
        n = int(mask.sum())
        baseline_total = self.baseline_power_w * self._interval() * n
        baseline_isp = self.baseline_isp_power_w * self._interval() * n
        saved_total = baseline_total - float(self.energy_series_total_j[mask].sum())
        saved_isp = baseline_isp - float(self.energy_series_isp_j[mask].sum())
        if saved_total <= 0:
            return 0.0
        return max(0.0, min(1.0, saved_isp / saved_total))

    def mean_online_gateways(self, t_start: float = 0.0, t_end: Optional[float] = None) -> float:
        """Average number of powered gateways over a time window (Fig. 7)."""
        t_end = self.duration if t_end is None else t_end
        mask = (self.sample_times >= t_start) & (self.sample_times < t_end)
        if not mask.any():
            return 0.0
        return float(self.online_gateways[mask].mean())

    def mean_online_line_cards(self, t_start: float = 0.0, t_end: Optional[float] = None) -> float:
        """Average number of powered line cards over a time window (Sec. 5.2.3)."""
        t_end = self.duration if t_end is None else t_end
        mask = (self.sample_times >= t_start) & (self.sample_times < t_end)
        if not mask.any():
            return 0.0
        return float(self.online_line_cards[mask].mean())

    def flow_durations(self) -> Dict[int, float]:
        """Completion time of every finished flow, keyed by flow id."""
        return {r.flow_id: r.duration_s for r in self.flow_records}

    def _interval(self) -> float:
        if len(self.energy_series_times) > 1:
            return float(self.energy_series_times[1] - self.energy_series_times[0])
        return self.duration


class AccessNetworkSimulator:
    """Simulates one scheme over one scenario."""

    #: Largest time step taken while the network is completely idle.
    MAX_IDLE_SKIP_S = 30.0

    def __init__(
        self,
        scenario: Scenario,
        scheme: SchemeConfig,
        power_model: AccessNetworkPowerModel = DEFAULT_POWER_MODEL,
        step_s: float = 1.0,
        sample_interval_s: float = 60.0,
        seed: int = 0,
        tracer=None,
    ):
        if step_s <= 0 or sample_interval_s <= 0:
            raise ValueError("step_s and sample_interval_s must be positive")
        self.scenario = scenario
        self.scheme = scheme
        self.power_model = power_model
        self.step_s = step_s
        self.sample_interval_s = sample_interval_s
        self.seed = seed
        #: Optional :class:`~repro.obs.tracer.SimTracer`.  Every emit site
        #: guards on ``is not None`` (hoisted out of hot loops), so with no
        #: tracer attached the kernel does zero tracing work; with one
        #: attached it only *reads* state — results stay bit-identical.
        self.tracer = tracer
        self._rng = np.random.default_rng(seed)

        # --- devices ---------------------------------------------------
        soi = scheme.soi
        if scheme.idealized_transitions:
            soi = SoIConfig(idle_timeout_s=0.0, wake_up_time_s=0.0)

        # --- fleet mix & churn timeline --------------------------------
        fleet = scenario.fleet if scenario.fleet is not None else HOMOGENEOUS
        churn = scenario.churn if scenario.churn is not None else EMPTY_TIMELINE
        self.fleet = fleet
        # The homogeneous fast path (counts × the power model's gateway
        # device) is kept bit-identical to the seed kernel; only an
        # explicitly attached non-uniform fleet switches to per-gateway
        # power arrays.  A custom power model without a fleet profile stays
        # homogeneous in that model's own gateway device.
        self._fleet_hetero = (
            scenario.fleet is not None and not fleet.is_uniform(power_model.gateway)
        )
        power_arrays = None
        wake_times = None
        gen_assignment = None
        if self._fleet_hetero:
            self._generation_names = fleet.generation_names
            gen_assignment, active_w, sleep_w, wake_w, wake_time = fleet.device_arrays(
                scenario.num_gateways, soi.wake_up_time_s
            )
            power_arrays = (active_w, sleep_w, wake_w)
            # The idealised optimal wakes instantly whatever the hardware.
            if not scheme.idealized_transitions:
                wake_times = wake_time
            self._baseline_user_w = float(sum(active_w))
            self._generation_counts = {
                name: sum(1 for g in gen_assignment if g == index)
                for index, name in enumerate(self._generation_names)
            }
        else:
            base_name = (
                fleet.generation_names[0] if scenario.fleet is not None else "default"
            )
            self._generation_names = [base_name]
            self._baseline_user_w = scenario.num_gateways * power_model.gateway.active_w
            self._generation_counts = {base_name: scenario.num_gateways}

        self._churn_actions = churn.compile(scenario.num_gateways)
        self._churn_index = 0
        self._next_churn_at = (
            self._churn_actions[0].at_s if self._churn_actions else inf
        )
        absent_gateways, absent_clients = churn.initially_absent()
        self._clients_out: Set[int] = set(absent_clients)
        self._has_gateway_churn = churn.has_gateway_churn()
        self._dropped_flows = 0
        self._suppressed_arrivals = 0

        self.gateway_array = GatewayArray(
            num_gateways=scenario.num_gateways,
            backhaul_bps=scenario.wireless.backhaul_bps,
            soi=soi,
            sleep_enabled=scheme.sleep_enabled,
            load_window_s=scheme.bh2.load_window_s,
            initially_sleeping=scheme.sleep_enabled,
            # Only schemes that observe gateway load need the sliding-window
            # traffic samples (BH2 decisions, optimal re-routing).
            track_load=scheme.aggregation is not AggregationKind.NONE,
            power_w=power_arrays,
            wake_time_s=wake_times,
            generation=gen_assignment,
            num_generations=len(self._generation_names),
            out_of_service=absent_gateways,
        )
        if tracer is not None:
            # Every state change funnels through _change_state, which
            # appends to this log only while it is a list — O(transitions)
            # with a tracer, a single None check per transition without.
            self.gateway_array.transition_log = []
        #: Tracer-gated energy-segment ledger: one ``(start, end, counts)``
        #: entry per charged constant-power segment, where ``counts`` holds
        #: per-generation ``(active, waking, sleeping-in-service)`` device
        #: counts of the exact state the segment was charged with.  None
        #: (and zero cost) without a tracer; :mod:`repro.obs.explain`
        #: consumes it to attribute kWh deltas against the no-sleep twin.
        self.energy_segments: Optional[List[tuple]] = (
            [] if tracer is not None else None
        )
        self._energy_run_counts: Optional[tuple] = None
        self.dslam = Dslam(
            config=self._dslam_config(),
            line_ports=dict(scenario.gateway_port),
        )
        self.channel = WirelessChannel(
            home_capacity_bps=scenario.wireless.home_capacity_bps,
            neighbour_capacity_bps=scenario.wireless.neighbour_capacity_bps,
            seed=seed,
        )
        self.scheduler = FlowScheduler(backhaul_bps=scenario.wireless.backhaul_bps)

        # --- watt-aware aggregation (repro.wattopt) ---------------------
        # Only a watt-aware scheme over an actually heterogeneous fleet
        # builds a cost model: on the homogeneous default every marginal
        # watt is equal, and skipping the machinery entirely keeps the
        # watt schemes bit-identical to their count-minimising twins.
        self._watt_cost_model: Optional[WattCostModel] = None
        if scheme.watt_aware and self._fleet_hetero:
            self._watt_cost_model = WattCostModel.from_fleet(
                fleet, scenario.num_gateways, power_model
            )
        watt_bias = (
            self._watt_cost_model.bias()
            if self._watt_cost_model is not None
            and scheme.aggregation is AggregationKind.BH2
            else None
        )

        # --- per-client routing state -----------------------------------
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
                    watt_bias=watt_bias,
                )
        self._terminal_list: List[BH2Terminal] = list(self.terminals.values())
        self._decision_at = np.array(
            [t._next_decision_at for t in self._terminal_list], dtype=float
        )
        #: Lazy-deletion heap over (next decision instant, terminal index);
        #: stale entries are skipped when their time no longer matches
        #: ``_decision_at`` (the source of truth).
        self._decision_heap: List[Tuple[float, int]] = [
            (t._next_decision_at, i) for i, t in enumerate(self._terminal_list)
        ]
        heapify(self._decision_heap)
        self._min_decision_at = self._decision_heap[0][0] if self._decision_heap else inf
        if (
            self._watt_cost_model is not None
            and scheme.aggregation is AggregationKind.OPTIMAL
        ):
            self._optimal_solver: GreedyAggregationSolver = WattGreedyAggregationSolver(
                self._watt_cost_model
            )
        else:
            self._optimal_solver = GreedyAggregationSolver()
        self._next_optimal_at = 0.0
        #: Gateways the last optimal solve decided to keep online (they stay
        #: powered until the next solve, even if they carry only backup load).
        self._optimal_online: Set[int] = set()

        # --- trace -------------------------------------------------------
        # Built once per trace and shared by every run over it: the kernel
        # only indexes these, and _run_optimal copies a period's demand.
        arrivals, arrival_times = scenario.trace.arrival_stream()
        self._arrivals: List[Flow] = arrivals
        self._arrival_times: List[float] = arrival_times
        self._arrival_index = 0
        self._upcoming_demand: Dict[int, Dict[int, float]] = {}
        if scheme.aggregation is AggregationKind.OPTIMAL:
            self._upcoming_demand = scenario.trace.period_demand(scheme.optimal_period_s)

        # --- accounting ---------------------------------------------------
        self.energy = EnergyAccumulator(
            interval_seconds=sample_interval_s, horizon=scenario.trace.duration
        )
        self._samples: List[Tuple[float, int, int, int, int]] = []
        self.steps_taken = 0
        self._solver_invocations = 0
        self._bh2_rounds = 0
        self._bh2_decisions = 0

        # --- caches -------------------------------------------------------
        self._home_gateway = scenario.trace.home_gateway
        self._simple_routing = scheme.aggregation is AggregationKind.NONE
        self._home_capacity: Dict[int, float] = {
            client: self.channel.capacity(client, home, True)
            for client, home in self._home_gateway.items()
        }
        self._cards_on = len(self.dslam.online_cards(self.gateway_array.not_sleeping_ids()))
        self._dslam_version = self.gateway_array.version
        # What the DSLAM sync passes to Dslam.rewire, kept up to date for
        # the gateways that change state: whether a line is powered, and
        # whether it may be re-terminated now (any line under idealised
        # transitions, otherwise any line whose gateway is not active).
        state = self.gateway_array.state
        self._line_active: Dict[int, bool] = {
            g: state[g] != STATE_SLEEPING for g in range(scenario.num_gateways)
        }
        self._movable: Set[int] = {
            g for g in range(scenario.num_gateways)
            if scheme.idealized_transitions or state[g] != STATE_ACTIVE
        }
        self._online_set: Set[int] = set(self.gateway_array.online_ids())
        self._online_version = self.gateway_array.version
        self._optimal_wireless_cache: Optional[Dict[Tuple[int, int], float]] = None
        self._optimal_capacities_cache: Optional[Dict[int, float]] = None
        #: Pending energy segment: [start, end, active, waking, cards_on].
        self._energy_run: Optional[list] = None

    # ------------------------------------------------------------------
    def _dslam_config(self) -> DslamConfig:
        base = self.scenario.dslam
        if self.scheme.switching is SwitchingKind.NONE:
            return base.with_switch(None, full=False)
        if self.scheme.switching is SwitchingKind.FULL:
            return base.with_switch(None, full=True)
        return base.with_switch(base.switch_size or 4, full=False)

    # ------------------------------------------------------------------
    def run(self, until: Optional[float] = None) -> SimulationResult:
        """Run the simulation and return the collected metrics."""
        # The kernel allocates hundreds of thousands of small, cycle-free
        # objects (active flows, samples; flow records are built later, and
        # only if a caller reads them); generational GC scans are pure
        # overhead here (~15-40% of the run), so pause collection.  A sweep
        # cell extends the pause past run() (repro.sweep.engine).
        gc_was_enabled = gc.isenabled()
        if gc_was_enabled:
            gc.disable()
        try:
            return self._run(until)
        finally:
            if gc_was_enabled:
                gc.enable()

    def _run(self, until: Optional[float]) -> SimulationResult:
        horizon = self.scenario.trace.duration if until is None else min(
            until, self.scenario.trace.duration
        )
        gateway_array = self.gateway_array
        scheduler = self.scheduler
        is_bh2 = self.scheme.aggregation is AggregationKind.BH2
        is_optimal = self.scheme.aggregation is AggregationKind.OPTIMAL
        step_s = self.step_s
        sample_interval_s = self.sample_interval_s
        optimal_period_s = self.scheme.optimal_period_s
        record_sample = self._record_sample
        record_served = gateway_array.record_served
        next_dt = self._next_dt
        admit_arrivals = self._admit_arrivals
        hetero = self._fleet_hetero
        steps = 0
        now = 0.0
        next_sample = 0.0
        while now < horizon:
            if now >= next_sample:
                record_sample(now)
                next_sample += sample_interval_s
            # Churn events fire at their exact instants, before this
            # iteration's admissions and aggregation decisions (an event
            # landing on a BH2 decision epoch is seen by that decision).
            if now >= self._next_churn_at:
                self._apply_churn(now)
            # A busy step is one grid step, cut short by the horizon or a
            # churn instant; an idle one skips ahead (_next_dt).
            if scheduler._n_active > 0:
                leftover = horizon - now
                dt = step_s if step_s < leftover else leftover
                next_churn = self._next_churn_at
                if next_churn < now + dt:
                    # Land exactly on the churn instant, even mid-activity.
                    dt = next_churn - now
            else:
                dt = next_dt(now, next_sample, horizon)
            end = now + dt
            admit_arrivals(now)
            if is_bh2:
                if now >= self._min_decision_at:
                    self._run_bh2_decisions(now)
            elif is_optimal and now >= self._next_optimal_at:
                self._run_optimal(now)
                self._next_optimal_at += optimal_period_s

            # ---- serve flows at the cached constant rates
            if scheduler._n_active > 0:
                scheduler.ensure_rates(now, self._current_online_set())
                totals, _completed = scheduler.serve(now, end, dt)
                if totals:
                    record_served(end, totals)

            # ---- advance gateway state machines, rewire, charge energy
            gateway_array.step_to(
                end,
                scheduler._groups,
                self._optimal_online if is_optimal else (),
            )
            if gateway_array.version != self._dslam_version:
                self._sync_dslam()
            active = gateway_array.active_count
            waking = gateway_array.waking_count
            if hetero:
                # Per-gateway power: segments carry per-generation power
                # sums instead of device counts.
                self._accumulate_energy_het(
                    now, end, gateway_array.power_snapshot(), active + waking,
                    self._cards_on,
                )
            else:
                # Inlined copy of _accumulate_energy's segment-extend check
                # (hot path: most steps just extend the open segment); keep
                # the two in sync if the segment fields ever change.
                run_segment = self._energy_run
                if (
                    run_segment is not None
                    and run_segment[1] == now
                    and run_segment[2] == active
                    and run_segment[3] == waking
                    and run_segment[4] == self._cards_on
                ):
                    run_segment[1] = end
                else:
                    self._accumulate_energy(now, end, active, waking, self._cards_on)

            now = end
            steps += 1
        self.steps_taken = steps
        self._flush_energy()
        # The seed accrues state time through the final (possibly
        # horizon-overshooting) step, so flush at the actual end instant.
        self.gateway_array.flush_statistics(now)
        self._record_sample(min(now, horizon))
        return self._build_result(horizon)

    # ------------------------------------------------------------------
    # Flow admission and routing
    # ------------------------------------------------------------------
    def _admit_arrivals(self, now: float) -> None:
        index = self._arrival_index
        times = self._arrival_times
        count = len(times)
        if index >= count or times[index] > now:
            return
        arrivals = self._arrivals
        scheduler = self.scheduler
        # Admission bookkeeping is inlined (the scheduler's admit() contract,
        # minus the per-call overhead): append to the gateway group, mark the
        # gateway's rates dirty, count the flow.
        groups = scheduler._groups
        dirty = scheduler._dirty
        admit_counter = scheduler._admit_counter
        admitted = 0
        gateway_array = self.gateway_array
        state = gateway_array.state
        last_traffic = gateway_array.last_traffic_at
        home_map = self._home_gateway
        home_capacity = self._home_capacity
        capacity_cache = self.channel._cache
        capacity_of = self.channel.capacity
        simple = self._simple_routing
        selected_map = self.selected_gateway
        fallback_map = self.fallback_gateway
        clients_out = self._clients_out
        check_service = self._has_gateway_churn
        in_service = gateway_array.in_service
        stop = bisect_right(times, now, index)
        for i in range(index, stop):
            flow = arrivals[i]
            client = flow.client_id
            if clients_out and client in clients_out:
                # The subscriber is not (or not yet) part of the deployment.
                self._suppressed_arrivals += 1
                continue
            if simple:
                # Without aggregation every flow goes through the home gateway.
                gateway_id = home_map[client]
                capacity = home_capacity[client]
            else:
                selected = selected_map[client]
                if state[selected] == STATE_ACTIVE:
                    # Inlined fast path of _routing_gateway: the selected
                    # gateway is online, route straight through it.
                    fallback_map[client] = None
                    gateway_id = selected
                else:
                    gateway_id = self._routing_gateway(client, now)
                if gateway_id == home_map[client]:
                    capacity = home_capacity[client]
                else:
                    capacity = capacity_cache.get((client, gateway_id))
                    if capacity is None:
                        capacity = capacity_of(client, gateway_id, False)
            if check_service and not in_service[gateway_id]:
                # Chosen gateway is decommissioned/failed/undeployed:
                # rescue onto an in-service gateway or drop the flow.
                rescued = self._rescue_gateway(client)
                if rescued is None:
                    self._dropped_flows += 1
                    if self.tracer is not None:
                        self.tracer.event(
                            "flow.drop", now, cat="churn",
                            client=client, gateway=gateway_id,
                        )
                    continue
                if self.tracer is not None:
                    self.tracer.event(
                        "flow.rescue", now, cat="churn",
                        client=client, from_gateway=gateway_id,
                        to_gateway=rescued,
                    )
                gateway_id = rescued
                capacity = self._capacity_for(client, gateway_id)
            active = ActiveFlow(flow, gateway_id, capacity)
            active.admission_index = admit_counter + admitted
            group = groups.get(gateway_id)
            if group is None:
                groups[gateway_id] = [active]
            else:
                group.append(active)
            dirty.add(gateway_id)
            admitted += 1
            if state[gateway_id] == STATE_SLEEPING:
                gateway_array.request_wake(gateway_id, now)
            if now > last_traffic[gateway_id]:
                last_traffic[gateway_id] = now
        scheduler._n_active += admitted
        scheduler._admit_counter = admit_counter + admitted
        self._arrival_index = stop

    def _routing_gateway(self, client: int, now: float) -> int:
        """Which gateway a *new* flow of ``client`` should be routed through."""
        home = self._home_gateway[client]
        selected = self.selected_gateway.get(client, home)
        state = self.gateway_array.state
        if state[selected] == STATE_ACTIVE:
            self.fallback_gateway[client] = None
            return selected
        if selected == home:
            # Home gateway is asleep or waking: wake it and wait.
            return home
        if state[selected] == STATE_WAKING:
            # We are waiting for a remote gateway: keep traffic on the
            # fallback (usually the previous gateway) while it becomes
            # operational, otherwise wait.
            fallback = self.fallback_gateway.get(client)
            if fallback is not None and state[fallback] == STATE_ACTIVE:
                return fallback
            return selected
        # The selected remote gateway went to sleep.  A terminal can only
        # wake its own home gateway, so return home.
        if self.scheme.aggregation is AggregationKind.OPTIMAL:
            alternative = self._best_online_gateway(client, now)
            if alternative is not None:
                self.selected_gateway[client] = alternative
                return alternative
        self.selected_gateway[client] = home
        self.fallback_gateway[client] = None
        return home

    def _best_online_gateway(self, client: int, now: float) -> Optional[int]:
        """Least-loaded online gateway reachable by ``client`` (optimal scheme)."""
        state = self.gateway_array.state
        candidates = [
            g
            for g in self.scenario.topology.reachable[client]
            if state[g] == STATE_ACTIVE
        ]
        if not candidates:
            return None
        return min(candidates, key=lambda g: self.gateway_array.utilization(g, now))

    # ------------------------------------------------------------------
    # Fleet churn
    # ------------------------------------------------------------------
    def _capacity_for(self, client: int, gateway_id: int) -> float:
        """Wireless capacity of a client↔gateway link, via the caches."""
        if gateway_id == self._home_gateway[client]:
            return self._home_capacity[client]
        capacity = self.channel._cache.get((client, gateway_id))
        if capacity is None:
            capacity = self.channel.capacity(client, gateway_id, False)
        return capacity

    def _rescue_gateway(self, client: int) -> Optional[int]:
        """An in-service gateway to carry ``client``'s traffic.

        Preference order: the home gateway when it is in service, then —
        only under aggregation schemes, whose terminals can attach to
        neighbour gateways — the lowest-id reachable in-service gateway
        that is already online, then the lowest-id reachable in-service
        gateway (it will be woken).  Without aggregation every flow goes
        through the home gateway, so a client whose home is out of service
        is simply cut off.  Returns ``None`` when no rescue exists.
        """
        in_service = self.gateway_array.in_service
        home = self._home_gateway[client]
        if in_service[home]:
            return home
        if self._simple_routing:
            return None
        state = self.gateway_array.state
        candidates = sorted(
            g for g in self.scenario.topology.reachable[client] if in_service[g]
        )
        if not candidates:
            return None
        for gateway_id in candidates:
            if state[gateway_id] == STATE_ACTIVE:
                return gateway_id
        return candidates[0]

    def _gateway_out(self, gateway_id: int, now: float) -> None:
        """Take a gateway out of service: unplug it and rescue its flows."""
        gateway_array = self.gateway_array
        gateway_array.set_in_service(gateway_id, False, now)
        scheduler = self.scheduler
        group = scheduler._groups.get(gateway_id)
        if group:
            state = gateway_array.state
            tracer = self.tracer
            for flow in list(group):
                client = flow.flow.client_id
                target = self._rescue_gateway(client)
                if target is None:
                    scheduler.cancel(flow)
                    self._dropped_flows += 1
                    if tracer is not None:
                        tracer.event(
                            "flow.drop", now, cat="churn",
                            client=client, gateway=gateway_id,
                        )
                    continue
                if tracer is not None:
                    tracer.event(
                        "flow.rescue", now, cat="churn",
                        client=client, from_gateway=gateway_id, to_gateway=target,
                    )
                scheduler.migrate(flow, target, self._capacity_for(client, target))
                if state[target] == STATE_SLEEPING:
                    gateway_array.request_wake(target, now)
                gateway_array.touch(target, now)
                self.selected_gateway[client] = target
                self.fallback_gateway[client] = None
        # Re-point routing state that still references the dead gateway.
        home_map = self._home_gateway
        for client, selected in self.selected_gateway.items():
            if selected == gateway_id:
                rescued = self._rescue_gateway(client)
                self.selected_gateway[client] = (
                    rescued if rescued is not None else home_map[client]
                )
        for client, fallback in self.fallback_gateway.items():
            if fallback == gateway_id:
                self.fallback_gateway[client] = None
        self._optimal_online.discard(gateway_id)

    def _gateway_in(self, gateway_id: int, now: float) -> None:
        """Put a gateway (back) into service.

        Under always-on schemes the device powers straight up; sleep-capable
        schemes leave it asleep until traffic (or a decision) wakes it.
        """
        self.gateway_array.set_in_service(
            gateway_id, True, now, activate=not self.scheme.sleep_enabled
        )

    def _apply_churn(self, now: float) -> None:
        """Execute every compiled churn action due at or before ``now``."""
        actions = self._churn_actions
        index = self._churn_index
        count = len(actions)
        scheduler = self.scheduler
        tracer = self.tracer
        while index < count and actions[index].at_s <= now:
            action = actions[index]
            index += 1
            if action.kind.is_gateway:
                if action.into_service:
                    self._gateway_in(action.entity_id, now)
                else:
                    self._gateway_out(action.entity_id, now)
                if tracer is not None:
                    tracer.event(
                        "churn.gateway_in" if action.into_service
                        else "churn.gateway_out",
                        now, cat="churn", gateway=action.entity_id,
                    )
            elif action.into_service:
                self._clients_out.discard(action.entity_id)
                if tracer is not None:
                    tracer.event(
                        "churn.client_in", now, cat="churn",
                        client=action.entity_id,
                    )
            else:
                self._clients_out.add(action.entity_id)
                cancelled = scheduler.cancel_client(action.entity_id)
                self._dropped_flows += cancelled
                if tracer is not None:
                    tracer.event(
                        "churn.client_out", now, cat="churn",
                        client=action.entity_id, dropped_flows=cancelled,
                    )
        self._churn_index = index
        self._next_churn_at = actions[index].at_s if index < count else inf

    # ------------------------------------------------------------------
    # Aggregation logic
    # ------------------------------------------------------------------
    def _run_bh2_decisions(self, now: float) -> None:
        heap = self._decision_heap
        decision_times = self._decision_at
        due: List[int] = []
        while heap and heap[0][0] <= now:
            instant, index = heappop(heap)
            if decision_times[index] == instant:
                due.append(index)
            # Entries whose time moved on are stale duplicates: drop them.
        if not due:
            self._min_decision_at = heap[0][0] if heap else inf
            return
        due.sort()
        # Only decisions that send a terminal home with a wake request need
        # the set of clients with traffic — compute it lazily (rare).
        clients_with_flows: Optional[Set[int]] = None
        gateway_array = self.gateway_array
        # Terminals read the live state codes and compute the load of only
        # the gateways they examine.  Within a round no gateway comes online
        # or goes offline (a wake request only turns sleeping into waking)
        # and no traffic is recorded, so every terminal sees what a snapshot
        # taken at the start of the round would hold.
        state = gateway_array.state
        utilization = gateway_array.utilization
        decision_at = self._decision_at
        terminals = self._terminal_list
        selected_map = self.selected_gateway
        fallback_map = self.fallback_gateway
        for index in due:
            terminal = terminals[index]
            previous = terminal.current_gateway
            selected, wake_home = terminal.decide_fast(now, state, utilization)
            client = terminal.client_id
            if selected != previous:
                if wake_home:
                    if clients_with_flows is None:
                        clients_with_flows = self.scheduler.clients_with_traffic()
                    if client in clients_with_flows:
                        # Wake the home gateway only when there is traffic to
                        # carry back; idle terminals re-attach lazily (the next
                        # flow arrival wakes the home gateway if still needed).
                        gateway_array.request_wake(terminal.home_gateway, now)
                        # Traffic keeps using the previous gateway while home wakes.
                        if state[previous] == STATE_ACTIVE:
                            fallback_map[client] = previous
                    else:
                        fallback_map[client] = None
                else:
                    fallback_map[client] = None
            # Unconditional: _routing_gateway may have rerouted this client
            # behind the terminal's back; every decision re-asserts it.
            selected_map[client] = selected
            next_at = terminal._next_decision_at
            decision_at[index] = next_at
            heappush(heap, (next_at, index))
        self._min_decision_at = heap[0][0] if heap else inf
        self._bh2_rounds += 1
        self._bh2_decisions += len(due)
        if self.tracer is not None:
            self.tracer.event(
                "bh2.round", now, cat="bh2",
                decisions=len(due),
                online=sorted(self._current_online_set()),
            )

    def _optimal_wireless(self) -> Dict[Tuple[int, int], float]:
        """The full client↔gateway wireless-capacity map, built once.

        Entries for clients without demand in a given period are harmless:
        the solver only consults the pairs of its demand users.
        """
        cached = self._optimal_wireless_cache
        if cached is None:
            topology = self.scenario.topology
            capacity_of = self.channel.capacity
            cached = {}
            for client, home in topology.home_gateway.items():
                for gateway in topology.reachable[client]:
                    cached[(client, gateway)] = capacity_of(client, gateway, gateway == home)
            self._optimal_wireless_cache = cached
        return cached

    def _optimal_capacities(self) -> Dict[int, float]:
        """Per-gateway backhaul capacities (constant; built once)."""
        cached = self._optimal_capacities_cache
        if cached is None:
            cached = {
                g: self.scenario.wireless.backhaul_bps
                for g in range(self.scenario.num_gateways)
            }
            self._optimal_capacities_cache = cached
        return cached

    def _run_optimal(self, now: float) -> None:
        period_index = int(now // self.scheme.optimal_period_s)
        demands = dict(self._upcoming_demand.get(period_index, {}))
        # Add the backlog of flows still in flight so they keep a serving gateway.
        for client, backlog in self.scheduler.client_demand_bps(
            horizon_s=self.scheme.optimal_period_s
        ).items():
            demands[client] = demands.get(client, 0.0) + backlog
        if self._clients_out:
            # Unsubscribed (or not-yet-subscribed) clients have no demand.
            demands = {c: d for c, d in demands.items() if c not in self._clients_out}
        if not demands:
            # Nothing to carry: every gateway may sleep.
            self._optimal_online = set()
            return
        # A single client can never use more than the ADSL backhaul, so cap
        # its demand there (otherwise a large backlog would look unservable).
        cap = self.scenario.wireless.backhaul_bps
        demands = {c: min(d, cap) for c, d in demands.items()}
        topology = self.scenario.topology
        capacities = self._optimal_capacities()
        if self._has_gateway_churn:
            # Out-of-service gateways cannot be selected by the solver.
            in_service = self.gateway_array.in_service
            capacities = {g: c for g, c in capacities.items() if in_service[g]}
        problem = AggregationProblem(
            demands_bps=demands,
            capacities_bps=capacities,
            wireless_bps=self._optimal_wireless(),
            backup=self.scheme.bh2.backup,
            max_utilization=self.scheme.optimal_max_utilization,
        )
        solution = self._optimal_solver.solve(problem)
        self._solver_invocations += 1
        self._optimal_online = set(solution.online_gateways)
        if self.tracer is not None:
            self.tracer.event(
                "optimal.solve", now, cat="optimal",
                online=sorted(self._optimal_online),
                demand_clients=len(demands),
            )
        # Wake the selected gateways (instantaneously for the idealised bound).
        gateway_array = self.gateway_array
        for gateway_id in solution.online_gateways:
            if gateway_array.state[gateway_id] == STATE_SLEEPING:
                gateway_array.request_wake(gateway_id, now)
            gateway_array.touch(gateway_id, now)
        # Migrate in-flight flows and update the routing of future flows.
        assignment = solution.assignment
        home_gateway = topology.home_gateway
        for flow in self.scheduler.active_flows:
            client = flow.client_id
            assigned = assignment.get(client)
            if assigned:
                primary = assigned[0]
                if primary != flow.gateway_id:
                    self.scheduler.migrate(
                        flow,
                        primary,
                        self.channel.capacity(client, primary, primary == home_gateway[client]),
                    )
        selected_map = self.selected_gateway
        for client in demands:
            assigned = assignment.get(client)
            if assigned:
                selected_map[client] = assigned[0]

    # ------------------------------------------------------------------
    # Per-step mechanics
    # ------------------------------------------------------------------
    def _current_online_set(self) -> Set[int]:
        """Set of online gateway ids; the same object while states are unchanged.

        Object identity doubles as the scheduler's change signal, so a new
        set is only built when some gateway actually transitioned.
        """
        if self._online_version != self.gateway_array.version:
            self._online_set = set(self.gateway_array.online_ids())
            self._online_version = self.gateway_array.version
        return self._online_set

    def _sync_dslam(self) -> None:
        """Re-pack the HDF switches and refresh the line-card count.

        The seed rewires every step; rewiring is deterministic and
        idempotent for unchanged gateway states, so it only needs to run
        when some state actually changed, and then only for the k-switches
        holding a line whose gateway changed state.
        """
        gateway_array = self.gateway_array
        if gateway_array.version == self._dslam_version:
            return
        changed = gateway_array.changed_ids
        if self.dslam.mode is not SwitchingMode.FIXED:
            # A line's activity and mobility depend on its own gateway's
            # state only, so both maps are updated for the changed lines.
            state = gateway_array.state
            line_active = self._line_active
            movable = self._movable
            idealized = self.scheme.idealized_transitions
            for g in changed:
                code = state[g]
                line_active[g] = code != STATE_SLEEPING
                if idealized or code != STATE_ACTIVE:
                    movable.add(g)
                else:
                    movable.discard(g)
            self.dslam.rewire(line_active, movable, changed)
        changed.clear()
        self._cards_on = len(self.dslam.online_cards(gateway_array.not_sleeping_ids()))
        self._dslam_version = gateway_array.version

    def _accumulate_energy(
        self, start: float, end: float, active: int, waking: int, cards_on: int
    ) -> None:
        """Extend the pending constant-power segment or flush and restart it."""
        run = self._energy_run
        if (
            run is not None
            and run[1] == start
            and run[2] == active
            and run[3] == waking
            and run[4] == cards_on
        ):
            run[1] = end
        else:
            self._flush_energy()
            self._energy_run = [start, end, active, waking, cards_on]
            if self.energy_segments is not None:
                self._energy_run_counts = self._segment_counts(active, waking)

    def _segment_counts(self, active: int, waking: int) -> tuple:
        """Single-generation device counts of a homogeneous segment.

        ``active``/``waking`` are exactly what the segment is charged with;
        the remainder of the in-service fleet sleeps (out-of-service
        devices are forced asleep and excluded from ``in_service_count``).
        """
        sleeping = self.gateway_array.in_service_count - active - waking
        return ((int(active), int(waking), max(0, int(sleeping))),)

    def _segment_counts_het(self) -> tuple:
        """Per-generation (active, waking, sleeping-in-service) counts of
        the live state, which a segment opened after ``step_to`` is
        charged with.
        """
        array = self.gateway_array
        counts = [[0, 0, 0] for _ in self._generation_names]
        generation = array._generation
        in_service = array.in_service
        for gateway_id, device_state in enumerate(array.state):
            if not in_service[gateway_id]:
                continue  # out-of-service devices are charged nothing
            # Slot order (active, waking, sleeping) = states (2, 1, 0).
            counts[generation[gateway_id]][2 - device_state] += 1
        return tuple(tuple(per_gen) for per_gen in counts)

    def _accumulate_energy_het(
        self,
        start: float,
        end: float,
        snapshot: Tuple[Tuple[float, ...], ...],
        powered: int,
        cards_on: int,
    ) -> None:
        """Heterogeneous-fleet twin of :meth:`_accumulate_energy`.

        Segments carry the per-generation power snapshot (same object while
        no gateway transitioned) plus the powered-gateway count for the
        per-line ISP modems.
        """
        run = self._energy_run
        if (
            run is not None
            and run[1] == start
            and run[2] == snapshot
            and run[3] == powered
            and run[4] == cards_on
        ):
            run[1] = end
        else:
            self._flush_energy()
            self._energy_run = [start, end, snapshot, powered, cards_on]
            if self.energy_segments is not None:
                self._energy_run_counts = self._segment_counts_het()

    def _flush_energy(self) -> None:
        run = self._energy_run
        if run is None:
            return
        model = self.power_model
        energy = self.energy
        if self._fleet_hetero:
            start, end, snapshot, powered, cards_on = run
            duration = end - start
            active_by_gen, waking_by_gen, sleeping_by_gen = snapshot
            for index, name in enumerate(self._generation_names):
                energy.charge_at(
                    f"gateway:{name}",
                    active_by_gen[index] + waking_by_gen[index] + sleeping_by_gen[index],
                    start,
                    duration,
                )
        else:
            start, end, active, waking, cards_on = run
            duration = end - start
            powered = active + waking
            energy.charge_at("gateway", model.user_side_power(active, waking), start, duration)
        energy.charge_at("isp_modem", powered * model.isp_modem.active_w, start, duration)
        energy.charge_at("line_card", cards_on * model.line_card.active_w, start, duration)
        energy.charge_at("dslam_shelf", model.dslam_shelf.active_w, start, duration)
        segments = self.energy_segments
        if segments is not None:
            segments.append((start, end, self._energy_run_counts))
            self._energy_run_counts = None
        self._energy_run = None

    def _record_sample(self, now: float) -> None:
        active = self.gateway_array.active_count
        waking = self.gateway_array.waking_count
        powered = active + waking
        self._samples.append((now, powered, waking, powered, self._cards_on))

    # ------------------------------------------------------------------
    def _next_dt(self, now: float, next_sample: float, horizon: float) -> float:
        """Length of an idle step (no flow in flight at ``now``): a skip to
        the next interesting instant."""
        dt = self.step_s
        candidates = [now + self.MAX_IDLE_SKIP_S, next_sample if next_sample > now else now + dt, horizon]
        if self._arrival_index < len(self._arrivals):
            candidates.append(self._arrival_times[self._arrival_index])
        if self.scheme.aggregation is AggregationKind.OPTIMAL:
            candidates.append(self._next_optimal_at if self._next_optimal_at > now else now + dt)
        transition = self.gateway_array.idle_transition_candidates(now)
        if isfinite(transition):
            candidates.append(transition)
        target = min(c for c in candidates if c > now)
        dt = max(self.step_s, min(target - now, self.MAX_IDLE_SKIP_S, horizon - now))
        # Churn events execute at their exact instants, closer than a full
        # step if need be (this clamp alone lands on them — a churn
        # candidate in the min above could never change the outcome).
        next_churn = self._next_churn_at
        if now < next_churn < now + dt:
            dt = next_churn - now
        return dt

    # ------------------------------------------------------------------
    def _build_result(self, horizon: float) -> SimulationResult:
        tracer = self.tracer
        if tracer is not None and self.gateway_array.transition_log:
            # Post-run: fold the raw transition log into per-gateway
            # sleep/wake/boot spans (one Perfetto track per gateway).
            from repro.obs.tracer import add_gateway_segments

            add_gateway_segments(
                tracer, self.gateway_array.transition_log, horizon
            )
        samples = np.array(self._samples, dtype=float)
        energy_times, energy_total = self.energy.timeseries()
        _times, energy_isp = self.energy.timeseries(
            categories=("isp_modem", "line_card", "dslam_shelf")
        )
        model = self.power_model
        baseline_isp = model.isp_side_power(
            modems_online=self.scenario.num_gateways,
            line_cards_online=self.scenario.dslam.num_line_cards,
        )
        if self._fleet_hetero:
            # Always-on operation of the mixed fleet: every gateway at its
            # own active draw, the full ISP side powered.
            baseline_power = self._baseline_user_w + baseline_isp
        else:
            baseline_power = model.no_sleep_power(
                num_gateways=self.scenario.num_gateways,
                num_line_cards=self.scenario.dslam.num_line_cards,
            )
        energy_breakdown = self.energy.breakdown()
        per_category = energy_breakdown.per_category_j
        if self._fleet_hetero:
            generation_energy = {
                name: per_category.get(f"gateway:{name}", 0.0)
                for name in self._generation_names
            }
        else:
            generation_energy = {
                self._generation_names[0]: per_category.get("gateway", 0.0)
            }
        gateway_array = self.gateway_array
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
            energy=energy_breakdown,
            energy_series_times=np.array(energy_times, dtype=float),
            energy_series_total_j=np.array(energy_total, dtype=float),
            energy_series_isp_j=np.array(energy_isp, dtype=float),
            # Bind only what records() needs — closing over `self` would pin
            # the whole simulator in memory for every unmaterialised run.
            flow_records=LazyFlowRecords(self.scheduler.records),
            gateway_online_seconds={
                g: gateway_array.online_seconds[g] + gateway_array.waking_seconds[g]
                for g in range(self.scenario.num_gateways)
            },
            baseline_power_w=baseline_power,
            baseline_isp_power_w=baseline_isp,
            served_flows=self.scheduler.served_flows,
            served_bytes=self.scheduler.served_bytes,
            steps_taken=self.steps_taken,
            generation_energy_j=generation_energy,
            generation_counts=dict(self._generation_counts),
            dropped_flows=self._dropped_flows,
            suppressed_arrivals=self._suppressed_arrivals,
            solver_invocations=self._solver_invocations,
            bh2_rounds=self._bh2_rounds,
            bh2_decisions=self._bh2_decisions,
            rate_recomputes=self.scheduler.rate_recomputes,
            rate_cache_hits=self.scheduler.rate_cache_hits,
        )

"""The sweep engine: shard the scenario × scheme × repetition grid.

The engine runs the comparison protocol of
:class:`~repro.simulation.runner.ExperimentRunner` over the whole catalog
grid, on one process or a pool: every task carries its own
:class:`~repro.sweep.catalog.ScenarioSpec` and is seeded with the same
crc32-deterministic :func:`~repro.simulation.runner.scheme_run_seed`, so a
serial execution, a parallel execution and a resumed execution of the
same grid produce bit-identical per-run metrics and therefore
bit-identical aggregates.

The unit of work is a trajectory, not a cell.  Pending cells are
grouped by spec, step, sample interval and
:attr:`SchemeConfig.trajectory_key`: a seed-free scheme's repetitions
and its switch variants follow one gateway/flow trajectory bit for bit,
so a group's first cell runs one kernel pass for all of the group's
switch models, and the process memo serves the group's other cells.
Every cell still stores its own record (own digest, seed and run index).
A scheme that reads its run seed is a group of its own.  Groups run in
the order of their first grid cell, and a pooled sweep sends each group
to one worker whole.

Workers rebuild scenarios from their (small, picklable) specs and keep a
one-entry per-process scenario cache: a spec's scenario is built once per
worker regardless of how many scheme × repetition tasks land on it, and
the next spec reuses the cached trace when their
:meth:`~repro.sweep.catalog.ScenarioSpec.trace_key` values match, so a
family whose specs share one trace generates it once per worker.  A
build runs with the garbage collector paused and ends in
:func:`gc.freeze`: the cached scenario's hundreds of thousands of
cycle-free trace objects then sit out every collection until the engine
drops the scenario or the sweep ends, where it calls :func:`gc.unfreeze`.
Completed runs stream back to the parent, which persists each one to the
:class:`~repro.sweep.store.ResultStore` immediately — a sweep killed
mid-run loses at most the runs that were in flight.

Execution is supervised (:mod:`repro.resilience.supervisor`): per-cell
wall-clock timeouts, bounded retries with deterministic backoff, dead
worker respawn with re-enqueue of in-flight cells, and degradation to
serial execution when the pool keeps dying.  Because a retried task is
the *same* :class:`SweepTask` — its seed was fixed at expansion time —
the rescue path reproduces the exact bytes a clean run would have
stored.  A :class:`~repro.resilience.faults.ChaosConfig` injects
deterministic faults (worker crash, hang, raise, torn store write) to
prove it.
"""

from __future__ import annotations

import gc
import time
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.schemes import SchemeConfig, standard_schemes
from repro.obs.metrics import MetricsRegistry, kernel_snapshot
from repro.obs.progress import notify
from repro.resilience.faults import (
    ChaosConfig,
    FaultKind,
    FaultPlan,
    InjectedFault,
    build_plan,
    tear_write,
)
from repro.resilience.supervisor import (
    RetryPolicy,
    TaskFailure,
    run_serial_supervised,
    run_supervised,
)
from repro.simulation.runner import run_scheme, scheme_run_seed
from repro.simulation.simulator import SimulationResult
from repro.sweep.catalog import ScenarioFamily, ScenarioSpec, resolve_families
from repro.sweep.store import ResultStore, RunRecord, run_digest

#: Peak window (11:00-19:00) of the paper's peak-hour statistics; sweeps
#: over traces too short to contain it fall back to the full duration.
PEAK_WINDOW = (11 * 3600.0, 19 * 3600.0)


@dataclass(frozen=True)
class SweepConfig:
    """Execution knobs of a sweep (grid membership lives in the catalog)."""

    runs_per_scheme: int = 1
    step_s: float = 2.0
    sample_interval_s: float = 60.0

    def __post_init__(self) -> None:
        if self.runs_per_scheme <= 0:
            raise ValueError("runs_per_scheme must be positive")
        if self.step_s <= 0 or self.sample_interval_s <= 0:
            raise ValueError("step_s and sample_interval_s must be positive")


@dataclass(frozen=True)
class SweepTask:
    """One cell of the scenario × scheme × repetition grid."""

    family: str
    spec: ScenarioSpec
    scheme: SchemeConfig
    run_index: int
    seed: int
    step_s: float
    sample_interval_s: float
    digest: str
    #: The other switch models of this cell's trajectory group; a cell
    #: that runs the kernel runs them in the same pass.
    variants: Tuple[SchemeConfig, ...] = ()


def run_metrics(result: SimulationResult, duration_s: float) -> Dict[str, float]:
    """The scalar metrics a sweep stores and aggregates for one run.

    Heterogeneous fleets add one ``gen:<generation>_kwh`` energy column per
    gateway generation (plus the matching ``gen:<generation>_count``), and
    churn scenarios report the flows lost to departures.
    """
    if duration_s > PEAK_WINDOW[1]:
        peak = PEAK_WINDOW
    else:
        peak = (0.0, duration_s)
    metrics = {
        "mean_savings_percent": 100.0 * result.mean_savings(),
        "peak_savings_percent": 100.0 * result.mean_savings(*peak),
        "mean_online_gateways": result.mean_online_gateways(),
        "peak_online_gateways": result.mean_online_gateways(*peak),
        "mean_online_line_cards": result.mean_online_line_cards(),
        "isp_share_of_savings_percent": 100.0 * result.mean_isp_share_of_savings(),
    }
    metrics["dropped_flows"] = float(result.dropped_flows)
    # Served user demand: completed flows and the bytes they delivered.
    # These are the y axis of the watt Pareto front (gateway kWh spent
    # vs. demand served) and the explicit "user demand stays served"
    # claim of the regression baselines.
    metrics["served_flows"] = float(result.served_flows)
    metrics["served_demand_gb"] = result.served_bytes / 1e9
    # Total gateway-side energy: the column the watt-aware report pairs
    # across schemes to compute watts_saved_vs_count_kwh.  Added left to
    # right in an explicit loop: from Python 3.12 the built-in sum() of
    # floats is compensated and can round differently, and every stored
    # record holds the left-to-right value.
    gateway_j = 0.0
    for joules in result.generation_energy_j.values():
        gateway_j += joules
    metrics["gateway_kwh"] = gateway_j / 3.6e6
    generation_names = list(result.generation_energy_j)
    # The homogeneous default reports a single pseudo-generation named
    # "default"; real fleet profiles (mixed or uniform-but-non-default)
    # get one energy/count column pair per generation.
    if generation_names and generation_names != ["default"]:
        for name, joules in result.generation_energy_j.items():
            metrics[f"gen:{name}_kwh"] = joules / 3.6e6
            metrics[f"gen:{name}_count"] = float(result.generation_counts.get(name, 0))
    return metrics


def left_to_right_mean(values: Sequence[float]) -> float:
    """The mean of ``values``, added left to right in a plain loop.

    From Python 3.12 the built-in ``sum()`` of floats is compensated and
    can round differently; every reported mean is the left-to-right one,
    on any interpreter.
    """
    total = 0.0
    for value in values:
        total += value
    return total / len(values)


def _dedupe_schemes(schemes: Sequence[SchemeConfig]) -> List[SchemeConfig]:
    """Drop repeated scheme names (a duplicate must not inflate the grid)."""
    unique: List[SchemeConfig] = []
    seen = set()
    for scheme in schemes:
        if scheme.name not in seen:
            seen.add(scheme.name)
            unique.append(scheme)
    return unique


def expand_tasks(
    families: Sequence[ScenarioFamily],
    schemes: Optional[Sequence[SchemeConfig]],
    config: SweepConfig,
) -> List[SweepTask]:
    """The full grid in deterministic (family, spec, scheme, run) order.

    ``schemes=None`` lets every family pick its own comparison set (its
    declared ``scheme_names``, or the Fig. 6 standard set); an explicit
    scheme list applies to every family.
    """
    explicit = _dedupe_schemes(schemes) if schemes is not None else None
    standard = None
    tasks: List[SweepTask] = []
    for family_ in families:
        family_schemes = explicit
        if family_schemes is None:
            family_schemes = family_.default_schemes()
            if family_schemes is None:
                if standard is None:
                    standard = standard_schemes()
                family_schemes = standard
        for spec in family_.expand():
            # canonical() materialises churn timelines and fleet mixes;
            # compute it once per spec, not once per scheme x repetition.
            spec_canonical = spec.canonical()
            for scheme in family_schemes:
                for run_index in range(config.runs_per_scheme):
                    seed = scheme_run_seed(spec.seed, run_index, scheme.name)
                    tasks.append(SweepTask(
                        family=family_.name,
                        spec=spec,
                        scheme=scheme,
                        run_index=run_index,
                        seed=seed,
                        step_s=config.step_s,
                        sample_interval_s=config.sample_interval_s,
                        digest=run_digest(
                            spec, scheme, seed, config.step_s,
                            config.sample_interval_s, spec_canonical=spec_canonical,
                        ),
                    ))
    return tasks


#: Per-process scenario cache, holding the last spec's scenario: many
#: (scheme, repetition) tasks share one spec, and consecutive specs often
#: share one trace (generating it dominates the scenario build).
_SCENARIO_CACHE: dict = {}

#: The results of the last kernel pass over a seed-free trajectory, one per
#: switch model and without flow records, keyed by the cell's digest
#: inputs minus the seed; emptied before every kernel pass.
_RUN_MEMO: dict = {}

#: Tracer handed to in-process (serial) task execution.  Set only around
#: the ``workers == 1`` supervised run; worker processes of a pooled
#: sweep are spawned while this is ``None``, so they never trace.
_TASK_TRACER = None


@dataclass
class TaskOutput:
    """What one executed grid cell ships back to the parent.

    Only ``record`` ever reaches the store, so stored bytes stay
    byte-identical whether or not observability is on (the chaos drill's
    invariant).  The metrics snapshot and phase timings ride alongside:
    the engine merges the snapshots into the sweep-wide registry and
    writes the timings to the store's ``timings.jsonl`` ledger.
    """

    record: RunRecord
    obs: Dict[str, dict]
    build_s: float
    run_s: float


def _drop_scenarios() -> None:
    """Empty the per-process caches and unfreeze what the last build froze."""
    _SCENARIO_CACHE.clear()
    _RUN_MEMO.clear()
    gc.unfreeze()


def _execute_task(task: SweepTask) -> TaskOutput:
    """Run one grid cell (top-level so multiprocessing can pickle it).

    A cell whose trajectory this process's last kernel pass covered reuses
    that pass's result for its scheme; any other cell runs a pass for its
    scheme and ``task.variants``.  Metrics, ``kernel.runs`` and the record
    stay per cell; the pass's work counters (steps, rate recomputes, BH2
    rounds, solver invocations) count once, for the cell that ran it.
    ``run_s`` times the kernel pass or reuse plus metric extraction.  The
    kernel wall-time histograms observe kernel passes only, never a reuse.
    """
    # The collector stays paused through the build and until the run's
    # result is dropped, so the run's objects die by refcount instead of
    # being scanned by the first collection after it.
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        scenario = _SCENARIO_CACHE.get(task.spec)
        build_s = 0.0
        if scenario is None:
            build_start = time.perf_counter()
            key = task.spec.trace_key()
            trace = next(
                (cached.trace for spec, cached in _SCENARIO_CACHE.items()
                 if spec.trace_key() == key),
                None,
            )
            _drop_scenarios()
            scenario = task.spec.build(trace=trace)
            _SCENARIO_CACHE[task.spec] = scenario
            # The trace's hundreds of thousands of cycle-free objects sit
            # out every later collection until _drop_scenarios().
            gc.freeze()
            build_s = time.perf_counter() - build_start
        run_start = time.perf_counter()
        result = _RUN_MEMO.get(
            (task.spec, task.scheme, task.step_s, task.sample_interval_s)
        )
        kernel_s = None
        if result is None:
            _RUN_MEMO.clear()
            kernel_start = time.perf_counter()
            results = run_scheme(
                scenario,
                task.scheme,
                seed=task.seed,
                step_s=task.step_s,
                sample_interval_s=task.sample_interval_s,
                tracer=_TASK_TRACER,
                variants=task.variants,
            )
            kernel_s = time.perf_counter() - kernel_start
            result = results[0]
            if not task.scheme.uses_run_seed:
                # Without their flow records the copies pin none of the
                # pass's per-flow objects once the collector resumes.
                for scheme, each in zip((task.scheme, *task.variants), results):
                    key = (task.spec, scheme, task.step_s, task.sample_interval_s)
                    _RUN_MEMO[key] = replace(each, flow_records=[])
            del results
        metrics = run_metrics(result, task.spec.duration_s)
        run_s = time.perf_counter() - run_start
        snapshot = kernel_snapshot(result, kernel_s, ran_pass=kernel_s is not None)
        del result
    finally:
        if gc_was_enabled:
            gc.enable()
    record = RunRecord(
        digest=task.digest,
        family=task.family,
        label=task.spec.label,
        scheme=task.scheme.name,
        run_index=task.run_index,
        seed=task.seed,
        duration_s=task.spec.duration_s,
        metrics=metrics,
    )
    registry = MetricsRegistry.from_snapshot(snapshot)
    if build_s > 0:
        registry.observe("sweep.trace_build_s", build_s)
    return TaskOutput(
        record=record, obs=registry.snapshot(), build_s=build_s, run_s=run_s
    )


def _trajectory_groups(pending: Sequence[SweepTask]) -> List[List[SweepTask]]:
    """Pending cells grouped by the kernel pass that serves them.

    A group holds the cells of one spec, step and sample interval whose
    schemes share a :attr:`SchemeConfig.trajectory_key`; a scheme that
    reads its run seed makes a group of each cell.  Groups are ordered by
    their first cell's grid position, and each cell carries the group's
    other switch models as its ``variants``.
    """
    groups: Dict[object, List[SweepTask]] = {}
    for task in pending:
        key = task.scheme.trajectory_key
        group = task.digest if key is None else (
            task.spec, key, task.step_s, task.sample_interval_s
        )
        groups.setdefault(group, []).append(task)
    units = []
    for cells in groups.values():
        schemes = _dedupe_schemes([task.scheme for task in cells])
        units.append([
            replace(task, variants=tuple(s for s in schemes if s.name != task.scheme.name))
            for task in cells
        ])
    return units


@dataclass
class SweepResult:
    """Outcome of a sweep: every task's record plus cache accounting.

    ``failures`` is the ledger of grid cells that exhausted their retry
    budget under ``--keep-going``; their digests are absent from
    ``records`` and their cells are skipped (not guessed at) by
    :meth:`aggregates`.
    """

    tasks: List[SweepTask]
    records: Dict[str, RunRecord]
    cache_hits: int = 0
    executed: int = 0
    failures: List[TaskFailure] = field(default_factory=list)
    retries: int = 0
    respawns: int = 0
    timeouts: int = 0
    degraded: bool = False
    #: Merged observability snapshot (counters/gauges/histograms) across
    #: every executed run plus the engine's own store/supervisor counters.
    obs: Dict[str, dict] = field(default_factory=dict)
    #: Per-digest supervisor accounting for *executed* cells:
    #: ``{"attempts": n, "wall_s": s}`` (cache-served cells have none).
    task_stats: Dict[str, Dict[str, float]] = field(default_factory=dict)

    @property
    def total_runs(self) -> int:
        """Number of grid cells in the sweep."""
        return len(self.tasks)

    @property
    def cache_hit_fraction(self) -> float:
        """Fraction of the grid served from the result store."""
        return self.cache_hits / len(self.tasks) if self.tasks else 0.0

    def record_for(self, task: SweepTask) -> RunRecord:
        """The stored record backing one grid cell."""
        return self.records[task.digest]

    def aggregates(self) -> List[Dict[str, object]]:
        """Per (family, scenario, scheme) means over repetitions.

        Rows keep grid order; metric means are added left to right over
        run-index-ordered records, so they are bit-identical across
        serial, parallel and resumed executions and across interpreters.
        Cells lost to failures (``--keep-going``) are left out of their
        group's mean — and a group with no surviving repetition is left
        out of the table — rather than silently zero-filled.
        """
        groups: Dict[Tuple[str, str, str], List[RunRecord]] = {}
        order: List[Tuple[str, str, str]] = []
        for task in self.tasks:
            key = (task.family, task.spec.label, task.scheme.name)
            if key not in groups:
                groups[key] = []
                order.append(key)
            record = self.records.get(task.digest)
            if record is not None:
                groups[key].append(record)
        rows: List[Dict[str, object]] = []
        for key in order:
            records = sorted(groups[key], key=lambda r: r.run_index)
            if not records:
                continue  # every repetition of this cell failed
            # Intersect across records: a store written before a metric
            # column existed may back some repetitions of a group.
            metric_names = [
                name
                for name in records[0].metrics
                if all(name in r.metrics for r in records)
            ]
            means = {
                name: left_to_right_mean([r.metrics[name] for r in records])
                for name in metric_names
            }
            rows.append({
                "family": key[0],
                "scenario": key[1],
                "scheme": key[2],
                "runs": len(records),
                **means,
            })
        return rows


def run_sweep(
    family_names: Optional[Sequence[str]] = None,
    schemes: Optional[Sequence[SchemeConfig]] = None,
    config: Optional[SweepConfig] = None,
    store: Optional[ResultStore] = None,
    workers: Optional[int] = None,
    use_cache: bool = True,
    families: Optional[Sequence[ScenarioFamily]] = None,
    retry: Optional[RetryPolicy] = None,
    chaos: Optional[ChaosConfig] = None,
    tracer=None,
    progress=None,
) -> SweepResult:
    """Run (or resume) a sweep over the given scenario families.

    ``family_names`` selects registered families (all of them when
    omitted); ``families`` bypasses the registry with explicit family
    objects.  ``schemes=None`` runs each family's own comparison set
    (``scheme_names`` when declared, the Fig. 6 standard set otherwise);
    an explicit list applies to every family.  With a ``store``, cached
    runs are served from disk and fresh runs are persisted as they
    complete; ``use_cache=False`` forces recomputation (results still
    overwrite the store).

    ``retry`` configures supervised execution (timeouts, retry budget,
    ``keep_going``); a task that exhausts its budget raises
    :class:`~repro.resilience.supervisor.SweepExecutionError` unless the
    policy says ``keep_going``, in which case the cell lands in
    ``SweepResult.failures`` instead.  ``chaos`` injects a deterministic
    fault plan over the *pending* (not cache-served) digests — the chaos
    drill of the CI ``chaos`` job.

    ``tracer`` attaches a :class:`~repro.obs.tracer.SimTracer`: the
    engine and supervisor record wall-clock spans (cache scan, task
    execution, store puts, retries/respawns), and a serial
    (``workers=1``) sweep additionally records the kernel's sim-time
    events in-process.  Tracing never changes results or stored bytes.

    ``progress`` attaches a :class:`~repro.obs.progress.ProgressSink`
    (e.g. the ``sweep --watch`` dashboard): it is told the grid shape
    and cache hits up front, then receives every supervisor event.  All
    sink callbacks go through the exception-swallowing ``notify``
    wrapper, so — like tracing — watching never changes results.
    """
    if workers is not None and workers <= 0:
        raise ValueError("workers must be positive")
    config = config or SweepConfig()
    resolved = list(families) if families is not None else resolve_families(family_names)
    # Selecting the same family twice is a no-op, not a doubled grid.
    unique: List[ScenarioFamily] = []
    seen_names = set()
    for family_ in resolved:
        if family_.name not in seen_names:
            seen_names.add(family_.name)
            unique.append(family_)
    resolved = unique
    if not resolved:
        raise ValueError("no scenario families selected")
    tasks = expand_tasks(resolved, schemes, config)

    records: Dict[str, RunRecord] = {}
    pending: List[SweepTask] = []
    seen_digests = set()
    caching = store is not None and use_cache
    scan_start = time.perf_counter()
    # One directory scan answers "which digests exist?" instead of one
    # file open per task; get() stays authoritative, so a corrupt record
    # can only cost a recomputation, never a wrong result.
    known = store.known_digests() if caching else frozenset()
    for task in tasks:
        if task.digest in seen_digests or task.digest in records:
            continue
        cached = store.get(task.digest) if (caching and task.digest in known) else None
        if cached is not None:
            records[task.digest] = cached
        else:
            seen_digests.add(task.digest)
            pending.append(task)
    if tracer is not None:
        tracer.span(
            "sweep.scan", scan_start, time.perf_counter(),
            clock="wall", cat="sweep",
            cached=len(records), pending=len(pending),
        )
    notify(progress, "sweep_started", tasks, frozenset(records))

    executed = len(pending)
    policy = retry or RetryPolicy()
    # The plan covers only digests that actually execute: a cache-served
    # cell cannot crash a worker, and victim choice stays stable across
    # resumes of the same pending set.
    plan: Optional[FaultPlan] = None
    if chaos is not None and chaos.total:
        plan = build_plan([task.digest for task in pending], chaos)

    def persist(output: TaskOutput, attempt: int) -> None:
        """Parent-side persist hook; torn-write injection lives here.

        Receives the worker's :class:`TaskOutput`; only the wrapped
        :class:`RunRecord` reaches the store, and one profiling line is
        appended to the timings ledger per successful persist (so a
        fresh sweep's ledger line count equals its record file count).
        """
        record = output.record
        if plan is not None and plan.fault_for(record.digest, attempt) is FaultKind.TORN_WRITE:
            if store is not None:
                tear_write(store, record.digest)
            raise InjectedFault(f"injected torn store write for {record.digest[:12]}")
        if store is not None:
            if tracer is not None:
                with tracer.wall_span("store.put", digest=record.digest[:12]):
                    store.put(record)
            else:
                store.put(record)
            store.append_timing({
                "digest": record.digest,
                "family": record.family,
                "label": record.label,
                "scheme": record.scheme,
                "run_index": record.run_index,
                "attempt": attempt,
                "build_s": round(output.build_s, 6),
                "run_s": round(output.run_s, 6),
            })

    failures: List[TaskFailure] = []
    retries = respawns = timeouts = 0
    degraded = False
    task_stats: Dict[str, Dict[str, float]] = {}
    registry = MetricsRegistry()
    if pending:
        units = _trajectory_groups(pending)
        workers = workers or 1
        workers = max(1, min(workers, len(units)))
        global _TASK_TRACER
        try:
            if workers == 1:
                _TASK_TRACER = tracer
                outcome = run_serial_supervised(
                    [task for unit in units for task in unit], _execute_task,
                    persist, policy, plan=plan, tracer=tracer, progress=progress,
                )
            else:
                # Each trajectory group goes to one worker whole, and groups
                # keep their grid order on first assignment, so each spec's
                # cells land contiguously and a worker's per-process scenario
                # cache stays warm.
                outcome = run_supervised(
                    units, _execute_task, persist, policy, plan=plan,
                    workers=workers, tracer=tracer, progress=progress,
                )
        finally:
            _TASK_TRACER = None
            # Cells run in this process serially, or after a pooled sweep
            # degrades to serial: don't pin the last scenario (and its
            # trace) for the process lifetime, nor leave it frozen.
            _drop_scenarios()
        # Unwrap: SweepResult.records holds bare RunRecords (exactly what
        # the cache-served path yields), the snapshots merge sweep-wide.
        for digest, payload in outcome.records.items():
            records[digest] = payload.record
            registry.merge(payload.obs)
        failures = outcome.failures
        retries = outcome.retries
        respawns = outcome.respawns
        timeouts = outcome.timeouts
        degraded = outcome.degraded
        task_stats = outcome.task_stats

    # Every grid cell that did not need a fresh run counts as a hit,
    # including duplicates reached through two families.
    cache_hits = len(tasks) - executed
    registry.counter("store.cache_hits", cache_hits)
    registry.counter("store.executed", executed)
    registry.counter("supervisor.retries", retries)
    registry.counter("supervisor.respawns", respawns)
    registry.counter("supervisor.timeouts", timeouts)
    notify(progress, "sweep_finished")
    return SweepResult(
        tasks=tasks,
        records=records,
        cache_hits=cache_hits,
        executed=executed,
        failures=failures,
        retries=retries,
        respawns=respawns,
        timeouts=timeouts,
        degraded=degraded,
        obs=registry.snapshot(),
        task_stats=task_stats,
    )

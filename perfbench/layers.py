"""Per-layer wall-time tracing of a sweep, installed from outside the program.

A traced sweep wraps public entry points of the ``repro`` layers at their
class or module attribute.  The engine and the kernel look those names up
at call time, so the wrappers are reached with no change to the program.
Each wrapper times its call on one span stack per process and keeps, per
layer: calls, inclusive seconds (outermost calls only, so nesting never
counts twice), self seconds (minus the wrapped calls nested inside) and
counted items.  Self seconds of every layer plus the root span's own self
time add up exactly to the root span's wall time.

Pooled workers are forked after installation, so they run the wrappers
too, but each keeps its own tally.  The wrapper around the engine's task
function ships each task's tally back on the task output the worker
already returns; the wrapper around the pooled supervisor collects them.
An untraced sweep calls nothing in this module.
"""

from __future__ import annotations

import functools
import importlib
import os
import re
import time
from contextlib import contextmanager
from typing import Callable, Dict, List, Optional

#: Attribute of a task output that carries a worker's tally to the parent.
SHIPPED = "perfbench_layer_tally"

#: Layer of the engine's per-cell task function (worker busy time).
TASK = "engine.task"
SUPERVISE = "resilience.supervise"
RENDER = "report.render"
ROOT = "sweep"
KERNEL = "simulation.kernel."


class Tally:
    """Per-layer calls, inclusive and self seconds, and counted items."""

    def __init__(self) -> None:
        self.calls: Dict[str, int] = {}
        self.total_s: Dict[str, float] = {}
        self.self_s: Dict[str, float] = {}
        self.items: Dict[str, int] = {}
        #: Open spans: [layer, start, seconds of nested wrapped calls].
        self._stack: List[list] = []
        self._open: Dict[str, int] = {}

    def enter(self, layer: str) -> None:
        self._open[layer] = self._open.get(layer, 0) + 1
        self._stack.append([layer, time.perf_counter(), 0.0])

    def exit(self) -> float:
        layer, start, nested = self._stack.pop()
        elapsed = time.perf_counter() - start
        self._open[layer] -= 1
        self.calls[layer] = self.calls.get(layer, 0) + 1
        self.self_s[layer] = self.self_s.get(layer, 0.0) + elapsed - nested
        if not self._open[layer]:
            self.total_s[layer] = self.total_s.get(layer, 0.0) + elapsed
        if self._stack:
            self._stack[-1][2] += elapsed
        return elapsed

    def count(self, layer: str, items: int) -> None:
        self.items[layer] = self.items.get(layer, 0) + int(items)

    def reset(self) -> None:
        self.__init__()

    def export(self) -> dict:
        return {
            "calls": dict(self.calls),
            "total_s": dict(self.total_s),
            "self_s": dict(self.self_s),
            "items": dict(self.items),
        }

    def merge(self, exported: dict) -> None:
        for field in ("calls", "total_s", "self_s", "items"):
            mine = getattr(self, field)
            for layer, value in exported[field].items():
                mine[layer] = mine.get(layer, 0) + value


def kernel_layer(scheme_name: str) -> str:
    """Layer name of the kernel running one scheme (``SoI+k-switch`` -> ``soi-kswitch``)."""
    slug = re.sub(r"[^a-z0-9]+", "-", scheme_name.lower()).strip("-")
    return KERNEL + slug.replace("k-switch", "kswitch")


#: (module, class or None, attribute, layer, items counted from the result).
TARGETS = (
    ("repro.sweep.engine", None, "expand_tasks", "engine.expand", None),
    ("repro.sweep.engine", None, "run_metrics", "engine.run_metrics", None),
    ("repro.sweep.engine", None, "_execute_task", TASK, None),
    ("repro.sweep.engine", None, "run_scheme", KERNEL, None),
    ("repro.sweep.engine", None, "run_serial_supervised", SUPERVISE, None),
    ("repro.sweep.engine", None, "run_supervised", SUPERVISE, None),
    ("repro.sweep.catalog", "ScenarioSpec", "build", "catalog.build", None),
    ("repro.traces.synthetic", "SyntheticTraceGenerator", "generate", "traces.generate",
     lambda trace: trace.num_flows),
    ("repro.topology.scenario", None, "generate_overlap_topology", "topology.build", None),
    ("repro.topology.scenario", None, "binomial_connectivity", "topology.build", None),
    ("repro.flows.scheduler", "FlowScheduler", "records", "flows.records", len),
    ("repro.flows.scheduler", "FlowScheduler", "ensure_rates", "flows.ensure_rates", None),
    ("repro.flows.scheduler", "FlowScheduler", "serve_single", "flows.serve", None),
    ("repro.flows.scheduler", "FlowScheduler", "serve", "flows.serve", None),
    ("repro.access.gateway_array", "GatewayArray", "step_to", "access.step_to", None),
    ("repro.access.dslam", "Dslam", "rewire", "access.dslam_rewire", None),
    ("repro.access.dslam", "Dslam", "online_cards", "access.dslam_online_cards", None),
    ("repro.core.bh2", "BH2Terminal", "decide_fast", "core.bh2_decide", None),
    ("repro.core.optimal", "GreedyAggregationSolver", "solve", "core.optimal_solve", None),
    ("repro.power.energy", "EnergyAccumulator", "charge_at", "power.charge", None),
    ("repro.sweep.store", "ResultStore", "get", "store.get", None),
    ("repro.sweep.store", "ResultStore", "known_digests", "store.known_digests", None),
    ("repro.sweep.store", "ResultStore", "put", "store.put", None),
    ("repro.sweep.store", "ResultStore", "append_timing", "store.append_timing", None),
)


def _owner(module_name: str, class_name: Optional[str]):
    module = importlib.import_module(module_name)
    return getattr(module, class_name) if class_name else module


def installed() -> List[str]:
    """``module.attribute`` of every target that currently holds a wrapper."""
    found = []
    for module_name, class_name, attribute, _layer, _items in TARGETS:
        current = vars(_owner(module_name, class_name))[attribute]
        if getattr(current, "__perfbench_layer__", None) is not None:
            found.append(".".join(filter(None, (module_name, class_name, attribute))))
    return found


class Tracer:
    """Installed wrappers plus the tallies they fill.

    ``tally`` holds the spans of this process (the parent's wall-time
    waterfall); ``workers`` holds what pooled workers shipped back.
    """

    def __init__(self) -> None:
        self.tally = Tally()
        self.workers = Tally()
        self._parent_pid = os.getpid()
        self._originals: List[tuple] = []

    # -- installation -----------------------------------------------------
    def install(self) -> "Tracer":
        for module_name, class_name, attribute, layer, items in TARGETS:
            owner = _owner(module_name, class_name)
            original = vars(owner)[attribute]
            setattr(owner, attribute, self._wrap(original, attribute, layer, items))
            self._originals.append((owner, attribute, original))
        return self

    def uninstall(self) -> None:
        while self._originals:
            owner, attribute, original = self._originals.pop()
            setattr(owner, attribute, original)

    def _wrap(
        self, fn: Callable, attribute: str, layer: str, items: Optional[Callable]
    ) -> Callable:
        tally = self.tally
        if layer == TASK:
            parent_pid = self._parent_pid

            def wrapper(task):
                # A forked worker starts from a copy of the parent's open
                # spans; each task there is its own root and ships its
                # tally home on the output.
                in_worker = os.getpid() != parent_pid
                if in_worker:
                    tally.reset()
                tally.enter(TASK)
                try:
                    output = fn(task)
                finally:
                    tally.exit()
                if in_worker:
                    setattr(output, SHIPPED, tally.export())
                return output
        elif layer == KERNEL:
            def wrapper(scenario, scheme, *args, **kwargs):
                tally.enter(kernel_layer(scheme.name))
                try:
                    return fn(scenario, scheme, *args, **kwargs)
                finally:
                    tally.exit()
        elif attribute == "run_supervised":
            def wrapper(*args, **kwargs):
                tally.enter(layer)
                try:
                    outcome = fn(*args, **kwargs)
                finally:
                    tally.exit()
                for payload in outcome.records.values():
                    shipped = payload.__dict__.pop(SHIPPED, None)
                    if shipped is not None:
                        self.workers.merge(shipped)
                return outcome
        else:
            def wrapper(*args, **kwargs):
                tally.enter(layer)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    tally.exit()
                if items is not None:
                    tally.count(layer, items(result))
                return result
        wrapper = functools.wraps(fn)(wrapper)
        wrapper.__perfbench_layer__ = layer
        return wrapper

    @contextmanager
    def span(self, layer: str):
        """A span the benchmark itself opens (the root, the report render)."""
        self.tally.enter(layer)
        try:
            yield
        finally:
            self.tally.exit()


def layer_metrics(fresh, rerun, workers: int) -> Dict[str, float]:
    """The per-layer numbers of one traced sweep and its cached re-run.

    ``fresh`` and ``rerun`` are each ``(tracer, SweepResult, numbers)`` of
    ``perfbench.child.timed_sweep``.  The store's read path is measured on
    the re-run, every other layer on the fresh sweep.  Layers that ran in
    pooled workers are summed over the workers, so on the pooled workload
    they can add up to more than the wall time.  In the sweep process
    itself, self times plus ``sweep.unattributed_s`` add up to
    ``sweep.wall_s``.
    """
    tracer, result, numbers = fresh
    rerun_tracer, rerun_result, rerun_numbers = rerun
    wall_s = numbers["wall_s"]
    parent = tracer.tally
    both = Tally()
    both.merge(parent.export())
    both.merge(tracer.workers.export())

    def total(layer: str) -> float:
        return both.total_s.get(layer, 0.0)

    def own(layer: str) -> float:
        return both.self_s.get(layer, 0.0)

    def calls(layer: str) -> int:
        return both.calls.get(layer, 0)

    counters = result.obs.get("counters", {})
    kernel_layers = [layer for layer in both.total_s if layer.startswith(KERNEL)]
    kernel_s = sum(total(layer) for layer in kernel_layers)
    executed = set(result.task_stats)
    executed_hours = sum(
        task.spec.duration_s / 3600.0 for task in result.tasks if task.digest in executed
    )
    specs = {task.spec for task in result.tasks}
    supervise_s = total(SUPERVISE)
    busy_s = total(TASK)
    cell_wall_s = sum(stats["wall_s"] for stats in result.task_stats.values())
    attempts = sum(stats["attempts"] for stats in result.task_stats.values())
    reads = rerun_tracer.tally
    ensure_calls = calls("flows.ensure_rates")
    root_self = parent.self_s.get(ROOT, 0.0)
    metrics = {
        "engine.expand_s": total("engine.expand"),
        "engine.seed_invariant_cells_frac": seed_invariant_fraction(result.tasks),
        "engine.run_metrics_s": total("engine.run_metrics"),
        "engine.run_metrics_self_s": own("engine.run_metrics"),
        "engine.task_self_s": own(TASK),
        "flows.records_s": total("flows.records"),
        "flows.records": both.items.get("flows.records", 0),
        "catalog.builds": calls("catalog.build"),
        "catalog.build_s": total("catalog.build"),
        "catalog.self_s": own("catalog.build"),
        "catalog.builds_per_spec": calls("catalog.build") / len(specs),
        "traces.generate_s": total("traces.generate"),
        "traces.flows": both.items.get("traces.generate", 0),
        "topology.build_s": total("topology.build"),
        "simulation.kernel_s": kernel_s,
        "simulation.self_s": sum(own(layer) for layer in kernel_layers),
        "simulation.steps": counters.get("kernel.steps", 0.0),
        "simulation.sim_hours_per_kernel_s": executed_hours / kernel_s if kernel_s else 0.0,
        "flows.ensure_rates_s": total("flows.ensure_rates"),
        "flows.serve_s": total("flows.serve"),
        "flows.rate_recomputes": counters.get("kernel.rate_recomputes", 0.0),
        "flows.rate_cache_hit_ratio": (
            counters.get("kernel.rate_cache_hits", 0.0) / ensure_calls if ensure_calls else 0.0
        ),
        "access.step_to_s": total("access.step_to"),
        "access.dslam_rewires": calls("access.dslam_rewire"),
        "access.dslam_s": own("access.dslam_rewire") + own("access.dslam_online_cards"),
        "core.bh2_rounds": counters.get("kernel.bh2_rounds", 0.0),
        "core.bh2_decisions": counters.get("kernel.bh2_decisions", 0.0),
        "core.bh2_decide_s": total("core.bh2_decide"),
        "core.optimal_solves": counters.get("kernel.solver_invocations", 0.0),
        "core.optimal_solve_s": total("core.optimal_solve"),
        "power.charges": calls("power.charge"),
        "power.charge_s": total("power.charge"),
        "store.get_calls": reads.calls.get("store.get", 0),
        "store.get_s": reads.total_s.get("store.get", 0.0),
        "store.known_digests_s": reads.total_s.get("store.known_digests", 0.0),
        "store.cache_hit_frac": rerun_result.cache_hit_fraction,
        "store.rerun_s": rerun_numbers["wall_s"],
        "store.put_calls": calls("store.put"),
        "store.put_s": total("store.put") + total("store.append_timing"),
        "report.render_s": total(RENDER),
        "resilience.supervise_s": supervise_s,
        "resilience.supervise_self_s": own(SUPERVISE),
        "resilience.worker_busy_frac": (
            busy_s / (max(1, min(workers, len(executed))) * supervise_s) if supervise_s else 0.0
        ),
        "resilience.dispatch_s": max(0.0, cell_wall_s - busy_s),
        "resilience.attempts_per_cell": attempts / len(executed) if executed else 0.0,
        "sweep.wall_s": wall_s,
        "sweep.unattributed_s": root_self,
        "sweep.unattributed_frac": root_self / wall_s if wall_s else 0.0,
        "trace.spans": sum(both.calls.values()),
        "grid.cells": len(result.tasks),
        "grid.specs": len(specs),
    }
    for scheme in ("no-sleep", "SoI", "SoI+k-switch", "BH2+k-switch", "Optimal"):
        layer = kernel_layer(scheme)
        metrics["simulation.kernel_s." + layer[len(KERNEL):]] = total(layer)
    return metrics


def seed_invariant_fraction(tasks) -> float:
    """Share of cells that repeat a run-seed-invariant (non-BH2) cell.

    Non-BH2 schemes do not depend on the run seed, so every repetition
    after the first only re-derives its ``run_index == 0`` twin.
    """
    from repro.core.schemes import AggregationKind

    repeats = sum(
        1
        for task in tasks
        if task.run_index > 0 and task.scheme.aggregation is not AggregationKind.BH2
    )
    return repeats / len(tasks) if tasks else 0.0

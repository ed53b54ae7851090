"""One sweep process of the benchmark: set up, sweep, check, report.

``perfbench/run.py`` starts this module as a fresh interpreter per set-up
sample or sweep run::

    python3 -m perfbench.child '<request as JSON>'

The process first imports the sweep entry points and opens its store, and
stamps both moments on the system-wide monotonic clock, so the parent can
subtract the launch stamp it passed in the request: that is ``setup_s``.
It then runs what the request asks for and prints one JSON object as its
last line of standard output.  Only the standard library is imported
before the stamps.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from contextlib import nullcontext
from dataclasses import replace


def monotonic() -> float:
    """The clock shared by parent, child and speed probe (system-wide on Linux)."""
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def main(argv) -> int:
    request = json.loads(argv[1])
    launched = request["launched"]
    from repro.sweep import ResultStore, SweepConfig, render_sweep, run_sweep  # noqa: F401

    imported = monotonic()
    store = ResultStore(request["store"])
    ready = monotonic()
    report = {"launched": launched, "imported": imported, "ready": ready}
    if request["mode"] == "sweep":
        report.update(sweep(request, store))
    print(json.dumps(report))
    return 0


def cpu_seconds(usage) -> float:
    return usage.ru_utime + usage.ru_stime


def timed_sweep(families, config, store, workers, tracer):
    """One sweep from the ``run_sweep`` call to the rendered report."""
    from perfbench import layers
    from repro.sweep import render_sweep, run_sweep

    own0 = resource.getrusage(resource.RUSAGE_SELF)
    kids0 = resource.getrusage(resource.RUSAGE_CHILDREN)
    started = monotonic()
    with tracer.span(layers.ROOT) if tracer else nullcontext():
        result = run_sweep(families=families, config=config, store=store, workers=workers)
        with tracer.span(layers.RENDER) if tracer else nullcontext():
            render_sweep(result)
    ended = monotonic()
    own1 = resource.getrusage(resource.RUSAGE_SELF)
    kids1 = resource.getrusage(resource.RUSAGE_CHILDREN)
    # Pooled workers are joined inside run_sweep, so the children's usage
    # covers them; ru_maxrss is in KiB on Linux.
    return result, {
        "started": started,
        "ended": ended,
        "wall_s": ended - started,
        "cpu_s": cpu_seconds(own1) - cpu_seconds(own0) + cpu_seconds(kids1) - cpu_seconds(kids0),
        "peak_rss_mb": max(own1.ru_maxrss, kids1.ru_maxrss) / 1024.0,
        "sim_hours": sum(task.spec.duration_s for task in result.tasks) / 3600.0,
        "cells": len(result.tasks),
    }


def cell_name(task) -> str:
    return f"{task.family}/{task.spec.label}/{task.scheme.name}#{task.run_index} seed={task.seed}"


def spec_facts(specs):
    """Spec -> (trace flows, whether no-sleep keeps every device powered).

    Fleet and churn do not change a spec's trace or DSLAM ports, so each
    distinct trace is built once, from the spec without them.
    """
    built = {}
    facts = {}
    for spec in specs:
        key = replace(spec, label="", fleet="homogeneous", churn="none")
        if key not in built:
            scenario = key.build()
            cards = {scenario.card_of_gateway(g) for g in range(scenario.num_gateways)}
            built[key] = (
                scenario.trace.num_flows,
                len(cards) == scenario.dslam.num_line_cards,
            )
        flows, every_card = built[key]
        facts[spec] = (flows, every_card and spec.churn == "none")
    return facts


def stored_records(result, fresh_store):
    """Key -> stored record of every grid cell (None when missing).

    A fresh sweep's records are read back from its store; a cached
    re-run's are the ones the re-run itself read from the store.
    """
    from perfbench.check import key
    from repro.sweep import ResultStore

    if fresh_store is None:
        return {key(task.digest): result.records.get(task.digest) for task in result.tasks}
    reader = ResultStore(fresh_store.root)
    return {key(task.digest): reader.get(task.digest) for task in result.tasks}


def check_sweep(result, stored, expected, cached: bool, rules: bool):
    """Fingerprints of the stored records, and key -> problem per failed cell.

    A cell fails when it failed in the sweep, has no stored record, was
    executed by a re-run that must serve every cell from the store
    (``cached``), differs from the ``expected`` fingerprints, or (with
    ``rules``) breaks a rule.
    """
    from perfbench import check

    tasks = {check.key(task.digest): task for task in result.tasks}
    cells = {record: cell_name(task) for record, task in tasks.items()}
    fingerprints = {
        record: check.fingerprint(stored_record.metrics)
        for record, stored_record in stored.items()
        if stored_record is not None
    }
    failed = {
        check.key(failure.digest): f"{failure.cell}: failed ({failure.kind}: {failure.reason})"
        for failure in result.failures
    }
    if cached:
        for digest in result.task_stats:
            record = check.key(digest)
            failed.setdefault(record, f"{cells[record]}: not served from the cache")
    if expected is not None:
        for record, problem in check.mismatches(fingerprints, expected, cells).items():
            failed.setdefault(record, problem)
    for record in cells.keys() - fingerprints.keys():
        failed.setdefault(record, f"{cells[record]}: no stored record")
    if rules:
        facts = spec_facts({task.spec for task in tasks.values()})
        violations = check.rule_violations(
            check.CellFacts(
                key=record,
                cell=cells[record],
                scheme=tasks[record].scheme.name,
                metrics=stored_record.metrics,
                num_gateways=tasks[record].spec.num_gateways,
                trace_flows=facts[tasks[record].spec][0],
                all_powered_without_sleep=facts[tasks[record].spec][1],
            )
            for record, stored_record in stored.items()
            if stored_record is not None
        )
        for record, problem in violations.items():
            failed.setdefault(record, problem)
    return fingerprints, failed


def sweep(request, store) -> dict:
    """Run the measured sweeps, or one traced sweep and its cached re-run.

    Untraced, fresh sweeps into empty stores repeat until
    ``request["seconds"]`` of sweeping is measured (at least one).  Traced,
    one fresh sweep runs with the layer wrappers installed, then a cached
    re-run of its store with wrappers of its own, as every CI sweep job
    re-runs its grid: the re-run is where the store's read path works.
    Every stored record is checked.
    """
    from perfbench import check, layers
    from perfbench.workloads import WORKLOADS, build_families
    from repro.sweep import ResultStore, SweepConfig

    workload = WORKLOADS[request["workload"]]
    families = build_families(workload, request["seed"])
    config = SweepConfig(runs_per_scheme=workload.runs_per_scheme)
    expected = check.load_fingerprints(request["expect"]) if request.get("expect") else None
    runs = []
    problems = {}

    def run(store, cached=False):
        tracer = layers.Tracer().install() if request["trace"] else None
        try:
            result, numbers = timed_sweep(families, config, store, workload.workers, tracer)
        finally:
            if tracer is not None:
                tracer.uninstall()
        # Without a reference, every later sweep must agree with the first.
        first = runs[0][2]["fingerprints"] if runs else None
        fingerprints, failed = check_sweep(
            result,
            stored_records(result, None if cached else store),
            expected if expected is not None else first,
            cached=cached,
            rules=bool(request.get("rules")) and not runs,
        )
        problems.update(failed)
        numbers.update(failed=len(failed), fingerprints=fingerprints)
        runs.append((tracer, result, numbers))

    run(store)
    if request["trace"]:
        # A new store object over the same directory, as a new CLI call opens.
        run(ResultStore(request["store"]), cached=True)
    else:
        while sum(numbers["wall_s"] for _tracer, _result, numbers in runs) < request["seconds"]:
            run(ResultStore(f"{request['store']}-{len(runs)}"))
    if request.get("fingerprints_out"):
        check.save_fingerprints(
            request["fingerprints_out"], runs[0][2]["fingerprints"],
            workload=workload.name, seed=request["seed"],
        )
    iterations = [numbers for _tracer, _result, numbers in runs]
    for numbers in iterations:
        del numbers["fingerprints"]
    return {
        "iterations": iterations,
        "problems": check.describe(problems),
        "counters": runs[0][1].obs.get("counters", {}),
        "layers": layers.layer_metrics(runs[0], runs[1], workload.workers)
        if request["trace"] else None,
    }


if __name__ == "__main__":
    sys.exit(main(sys.argv))

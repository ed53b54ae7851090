"""Tests of the sweep benchmark's tracing and correctness checks.

They run tiny in-process sweeps over the ``smoke`` families, so they need
``src`` on the path like the rest of the suite.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import pytest

from perfbench import check, child, layers, speed, workloads

ROOT = Path(__file__).resolve().parents[2]

TINY = workloads.Workload(
    name="tiny",
    families=("smoke-watt",),
    runs_per_scheme=2,
    workers=1,
    why="test grid",
    seed_offsets=(0,),
)


@pytest.fixture
def tiny(monkeypatch):
    monkeypatch.setitem(workloads.WORKLOADS, TINY.name, TINY)
    return TINY


def tiny_sweep(store, workers=1, traced=False):
    """(tracer or None, SweepResult, numbers) of one sweep of the tiny grid."""
    from repro.sweep import SweepConfig

    tracer = layers.Tracer().install() if traced else None
    try:
        result, numbers = child.timed_sweep(
            workloads.build_families(TINY, 0),
            SweepConfig(runs_per_scheme=TINY.runs_per_scheme),
            store,
            workers,
            tracer,
        )
    finally:
        if tracer is not None:
            tracer.uninstall()
    return tracer, result, numbers


def test_untraced_run_installs_no_wrapper(tiny, tmp_path, monkeypatch):
    from repro.sweep import ResultStore, engine

    def no_install(self):
        raise AssertionError("the untraced run installed wrappers")

    seen = []
    original = engine.run_metrics

    def spy(result, duration_s):
        seen.append(layers.installed())
        return original(result, duration_s)

    monkeypatch.setattr(layers.Tracer, "install", no_install)
    monkeypatch.setattr(engine, "run_metrics", spy)
    request = {"workload": tiny.name, "seed": 0, "mode": "sweep", "seconds": 0,
               "trace": False, "store": str(tmp_path / "store")}
    report = child.sweep(request, ResultStore(request["store"]))

    assert report["layers"] is None
    assert report["problems"] == []
    assert len(seen) == 10
    assert all(found == [] for found in seen)


def test_check_rejects_a_perturbed_record(tmp_path):
    from repro.sweep import ResultStore

    store = ResultStore(tmp_path / "store")
    _tracer, result, _numbers = tiny_sweep(store)
    stored = child.stored_records(result, store)
    fingerprints, failed = child.check_sweep(result, stored, None, cached=False, rules=True)
    assert failed == {}
    assert len(fingerprints) == len(result.tasks)
    # A re-run that must be served from the store rejects executed cells.
    _fingerprints, failed = child.check_sweep(result, stored, None, cached=True, rules=False)
    assert len(failed) == len(result.tasks)
    assert all("not served from the cache" in problem for problem in failed.values())

    victim = sorted(stored)[3]
    record = stored[victim]
    name = sorted(record.metrics)[0]
    record.metrics[name] = math.nextafter(record.metrics[name], math.inf)
    _fingerprints, failed = child.check_sweep(
        result, stored, fingerprints, cached=False, rules=False
    )
    assert list(failed) == [victim]
    assert "metrics differ" in failed[victim]
    assert record.scheme in failed[victim]

    del stored[victim]
    _fingerprints, failed = child.check_sweep(
        result, stored, fingerprints, cached=False, rules=False
    )
    assert list(failed) == [victim] and "no stored record" in failed[victim]


def test_rules_flag_impossible_cells():
    metrics = {
        "served_flows": 10.0, "dropped_flows": 2.0, "mean_online_gateways": 3.0,
        "mean_savings_percent": 0.0, "peak_savings_percent": 0.0,
    }
    fact = check.CellFacts(
        key="k", cell="fam/spec/no-sleep#0", scheme="no-sleep", metrics=metrics,
        num_gateways=4, trace_flows=12, all_powered_without_sleep=True,
    )
    assert check.rule_violations([fact]) == {}
    too_many = fact._replace(trace_flows=11)
    offline = fact._replace(metrics={**metrics, "mean_online_gateways": 4.5})
    saving = fact._replace(metrics={**metrics, "mean_savings_percent": 1.0})
    for broken in (too_many, offline, saving):
        assert list(check.rule_violations([broken])) == ["k"]
    # Where no-sleep leaves devices unpowered, its savings are legitimate.
    assert check.rule_violations([saving._replace(all_powered_without_sleep=False)]) == {}


@pytest.mark.parametrize("workers", [1, 2])
def test_self_times_add_up_to_no_more_than_wall(tmp_path, workers):
    from repro.sweep import ResultStore

    fresh = tiny_sweep(ResultStore(tmp_path / "store"), workers, traced=True)
    rerun = tiny_sweep(ResultStore(tmp_path / "store"), workers, traced=True)
    assert layers.installed() == []
    tracer, result, numbers = fresh
    parent = tracer.tally
    wall = numbers["wall_s"]
    assert parent.total_s[layers.ROOT] <= wall
    assert sum(parent.self_s.values()) <= wall + 1e-9
    assert min(parent.self_s.values()) >= -1e-9

    metrics = layers.layer_metrics(fresh, rerun, workers)
    assert metrics["sweep.unattributed_s"] >= 0.0
    assert metrics["grid.cells"] == len(result.tasks) == 10
    # Every executed cell ran through the wrapped kernel, in-process or in
    # a worker that shipped its tally home.
    both = layers.Tally()
    both.merge(parent.export())
    both.merge(tracer.workers.export())
    assert both.calls[layers.TASK] == result.executed
    assert metrics["catalog.builds"] >= 1 and metrics["simulation.kernel_s"] > 0
    assert metrics["store.put_calls"] == result.executed
    assert metrics["resilience.attempts_per_cell"] == 1.0
    # The re-run reads every cell back from the store.
    assert metrics["store.get_calls"] == 10 and metrics["store.cache_hit_frac"] == 1.0
    assert metrics["store.get_s"] > 0 and metrics["store.rerun_s"] > 0
    if workers == 1:
        assert tracer.workers.calls == {}
    else:
        assert tracer.workers.calls[layers.TASK] == result.executed

    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    printed = set(metrics) | {"setup.import_s", "trace.overhead_frac"}
    assert {metric["name"] for metric in declared} == printed


def test_speed_factor_averages_the_samples_of_an_interval():
    ref = speed.REFERENCE_S
    samples = [(1.0, ref), (2.0, 2 * ref), (3.0, 2 * ref), (4.0, ref)]
    assert speed.factor(samples, 1.5, 3.5) == 0.5
    assert speed.factor(samples, 0.0, 10.0) == 0.75
    # Fewer than two samples inside: the nearest ones around count too.
    assert speed.factor(samples, 3.2, 3.4) == 0.75
    with pytest.raises(ValueError):
        speed.factor([], 0.0, 1.0)

"""Observability tests: tracer buffer/export, metrics registry, the
observe-don't-perturb guard rail (traced runs bit-identical, obs-off
leaves zero residue), the sweep timing ledger, and the regress history
trajectory."""

import json

import numpy as np
import pytest

from repro.core.schemes import bh2_kswitch, no_sleep, soi
from repro.obs import (
    MetricsRegistry,
    SimTracer,
    add_gateway_segments,
    chrome_trace_from_events,
    kernel_snapshot,
    read_jsonl_events,
)
from repro.simulation.runner import run_scheme
from repro.sweep.catalog import ScenarioFamily, ScenarioSpec
from repro.sweep.engine import SweepConfig, run_sweep
from repro.sweep.store import ResultStore
from repro.topology.scenario import build_default_scenario

TINY = ScenarioFamily(
    name="tiny",
    description="test family",
    base=ScenarioSpec(label="tiny", num_clients=6, num_gateways=3, duration_s=900.0, seed=3),
    grid=(("density", (1.5, 2.5)),),
)
SCHEMES = [no_sleep(), soi()]
CONFIG = SweepConfig(runs_per_scheme=2, step_s=5.0, sample_interval_s=60.0)


def tiny_scenario(seed=5):
    return build_default_scenario(
        seed=seed, num_clients=12, num_gateways=4, duration=1800.0
    )


# ----------------------------------------------------------------------
# SimTracer
# ----------------------------------------------------------------------
def test_tracer_records_events_and_spans():
    tracer = SimTracer()
    tracer.event("bh2.round", 30.0, cat="bh2", decisions=2)
    tracer.span("kernel.stretch", 30.0, 90.0, cat="kernel", steps=12)
    with tracer.wall_span("store.put", digest="abc"):
        pass
    assert len(tracer.events) == 3
    instant, span, wall = tracer.events
    assert instant["ph"] == "i" and instant["args"]["decisions"] == 2
    assert span["ph"] == "X" and span["dur"] == pytest.approx(60.0)
    assert wall["clock"] == "wall" and wall["dur"] >= 0.0
    assert tracer.counts() == {"bh2.round": 1, "kernel.stretch": 1, "store.put": 1}


def test_tracer_buffer_is_bounded_and_counts_drops():
    tracer = SimTracer(max_events=3)
    for step in range(10):
        tracer.event("tick", float(step))
    assert len(tracer.events) == 3
    assert tracer.dropped == 7


def test_tracer_jsonl_round_trip_tolerates_torn_lines(tmp_path):
    tracer = SimTracer()
    tracer.event("a", 1.0)
    tracer.span("b", 1.0, 2.0)
    path = tmp_path / "trace.jsonl"
    tracer.write_jsonl(path)
    with open(path, "a") as handle:
        handle.write('{"torn": tru')  # a dead writer's partial line
    events = read_jsonl_events(path)
    assert [event["name"] for event in events] == ["a", "b"]


def test_chrome_export_is_perfetto_shaped(tmp_path):
    tracer = SimTracer()
    tracer.event("bh2.round", 30.0)
    tracer.span("kernel.stretch", 30.0, 90.0)
    with tracer.wall_span("task.run", tid=1):
        pass
    path = tmp_path / "trace.json"
    tracer.write_chrome(path)
    payload = json.loads(path.read_text())
    events = payload["traceEvents"]
    # Two clock domains rendered as processes, named via metadata events.
    assert {e["name"] for e in events if e["ph"] == "M"} == {"process_name"}
    phases = {e["name"]: e["ph"] for e in events if e["ph"] != "M"}
    assert phases == {"bh2.round": "i", "kernel.stretch": "X", "task.run": "X"}
    # Timestamps are microseconds; sim events keep absolute sim time.
    stretch = next(e for e in events if e["name"] == "kernel.stretch")
    assert stretch["ts"] == pytest.approx(30e6) and stretch["dur"] == pytest.approx(60e6)
    # Wall events are rebased so the trace starts near zero.
    task = next(e for e in events if e["name"] == "task.run")
    assert task["pid"] != stretch["pid"] and task["ts"] == pytest.approx(0.0)


def test_gateway_segments_tile_the_horizon():
    tracer = SimTracer()
    # Gateway 0: active -> sleeping at 100 s, awake again at 400 s.
    transitions = [(100.0, 0, 2, 0), (400.0, 0, 0, 2)]
    count = add_gateway_segments(tracer, transitions, horizon=1000.0)
    assert count == 3
    segments = [
        (e["name"], e["ts"], e["dur"]) for e in tracer.events
    ]
    assert segments == [
        ("gw.active", 0.0, 100.0),
        ("gw.sleeping", 100.0, 300.0),
        ("gw.active", 400.0, 600.0),
    ]


# ----------------------------------------------------------------------
# MetricsRegistry
# ----------------------------------------------------------------------
def test_registry_counters_gauges_histograms():
    registry = MetricsRegistry()
    registry.counter("kernel.steps", 5)
    registry.counter("kernel.steps", 3)
    registry.gauge("workers", 2)
    registry.gauge("workers", 4)
    registry.observe("run_s", 1.0)
    registry.observe("run_s", 3.0)
    snap = registry.snapshot()
    assert snap["counters"]["kernel.steps"] == 8
    assert snap["gauges"]["workers"] == 4
    hist = snap["histograms"]["run_s"]
    assert (hist["count"], hist["sum"], hist["min"], hist["max"]) == (2, 4.0, 1.0, 3.0)


def test_registry_merge_combines_worker_snapshots():
    a, b = MetricsRegistry(), MetricsRegistry()
    a.counter("runs")
    a.observe("run_s", 1.0)
    b.counter("runs", 2)
    b.observe("run_s", 5.0)
    a.merge(b.snapshot())
    snap = a.snapshot()
    assert snap["counters"]["runs"] == 3
    assert snap["histograms"]["run_s"] == {
        "count": 2, "sum": 6.0, "min": 1.0, "max": 5.0
    }
    # rows() renders every kind, sorted by name, for the report table.
    kinds = {name: kind for kind, name, _value in a.rows()}
    assert kinds == {"runs": "counter", "run_s": "histogram"}


def test_registry_empty_and_zero_count_histogram_snapshots():
    registry = MetricsRegistry()
    assert registry.snapshot() == {"counters": {}, "gauges": {}, "histograms": {}}
    assert registry.rows() == []
    # A zero-count histogram (a snapshot recorded before any sample
    # landed) must not divide by zero when rendered.
    registry.merge({"histograms": {
        "empty": {"count": 0.0, "sum": 0.0, "min": 0.0, "max": 0.0},
    }})
    assert registry.rows() == [("histogram", "empty", "n=0 mean=0 min=0 max=0")]
    # Merging nothing (None or an empty snapshot) is a no-op.
    other = MetricsRegistry.from_snapshot(None)
    other.merge({})
    assert other.snapshot() == {"counters": {}, "gauges": {}, "histograms": {}}


def test_registry_merge_disjoint_counter_sets():
    a, b = MetricsRegistry(), MetricsRegistry()
    a.counter("kernel.steps", 5)
    b.counter("store.cache_hits", 2)
    b.gauge("workers", 3)
    a.merge(b.snapshot())
    snap = a.snapshot()
    # Disjoint names coexist; nothing is dropped or zero-filled.
    assert snap["counters"] == {"kernel.steps": 5, "store.cache_hits": 2}
    assert snap["gauges"] == {"workers": 3}
    # Merging back adds only where names collide.
    b.merge(snap)
    assert b.snapshot()["counters"] == {"kernel.steps": 5, "store.cache_hits": 4}


def test_kernel_snapshot_reads_result_counters():
    result = run_scheme(tiny_scenario(), bh2_kswitch(), seed=2, step_s=5.0)
    snap = kernel_snapshot(result, wall_s=0.5)
    counters = snap["counters"]
    assert counters["kernel.runs"] == 1
    assert counters["kernel.steps"] == result.steps_taken
    assert counters["kernel.bh2_rounds"] == result.bh2_rounds > 0
    assert snap["histograms"]["kernel.run_s"]["sum"] == pytest.approx(0.5)


# ----------------------------------------------------------------------
# The guard rail: tracing observes, never perturbs
# ----------------------------------------------------------------------
def test_traced_run_is_bit_identical_to_untraced():
    scenario = tiny_scenario()
    scheme = bh2_kswitch()
    plain = run_scheme(scenario, scheme, seed=4, step_s=5.0)
    tracer = SimTracer()
    traced = run_scheme(scenario, scheme, seed=4, step_s=5.0, tracer=tracer)
    assert traced.steps_taken == plain.steps_taken
    assert traced.mean_savings() == plain.mean_savings()
    assert np.array_equal(traced.online_gateways, plain.online_gateways)
    assert np.array_equal(traced.sample_times, plain.sample_times)
    assert traced.flow_durations() == plain.flow_durations()
    assert (traced.bh2_rounds, traced.solver_invocations) == (
        plain.bh2_rounds, plain.solver_invocations
    )
    # ... and the traced run actually observed something.
    assert tracer.events
    assert any(event["name"] == "bh2.round" for event in tracer.events)


def test_obs_off_leaves_no_residue():
    from repro.simulation.simulator import AccessNetworkSimulator

    simulator = AccessNetworkSimulator(
        scenario=tiny_scenario(), scheme=soi(), step_s=5.0, seed=1
    )
    assert simulator.tracer is None
    assert simulator.gateway_array.transition_log is None
    simulator.run()
    assert simulator.gateway_array.transition_log is None


# ----------------------------------------------------------------------
# Sweep integration: ledger, merged metrics, per-cell accounting
# ----------------------------------------------------------------------
def test_traced_sweep_ledger_matches_manifest_and_obs_merges(tmp_path, monkeypatch):
    import repro.sweep.engine as engine_module

    kernel_runs = []

    def spy(scenario, scheme, **kwargs):
        kernel_runs.append(scheme.name)
        return run_scheme(scenario, scheme, **kwargs)

    monkeypatch.setattr(engine_module, "run_scheme", spy)
    store = ResultStore(tmp_path)
    tracer = SimTracer()
    result = run_sweep(
        families=[TINY], schemes=SCHEMES, config=CONFIG,
        store=store, workers=1, tracer=tracer,
    )
    assert not result.failures
    # One ledger line per executed-and-persisted run (the acceptance bar).
    entries = store.read_timings()
    assert len(entries) == result.executed == result.total_runs
    assert len(entries) == len(list(store.runs_dir.glob("*.json")))
    assert all(entry["run_s"] > 0 for entry in entries)
    # Worker metrics merged into the sweep-wide registry snapshot.
    assert result.obs["counters"]["kernel.runs"] == result.executed
    assert result.obs["counters"]["store.executed"] == result.executed
    # The kernel wall-time histograms observe kernel runs only: both
    # schemes are seed-free, so each second repetition reuses its first.
    assert len(kernel_runs) == result.executed // 2
    for name in ("kernel.run_s", "kernel.steps_per_s", "kernel.sim_hours_per_s"):
        assert result.obs["histograms"][name]["count"] == len(kernel_runs)
    # Executed cells carry wall-clock + attempt accounting.
    assert set(result.task_stats) == set(result.records)
    assert all(s["attempts"] == 1 for s in result.task_stats.values())
    # The serial sweep captured sim-time events and wall-clock spans.
    names = {event["name"] for event in tracer.events}
    assert "task.run" in names and "store.put" in names
    assert "bh2.round" not in names  # no BH2 scheme in SCHEMES
    chrome = chrome_trace_from_events(tracer.events)
    assert chrome["traceEvents"]


def test_cached_sweep_appends_nothing_and_reports_no_task_stats(tmp_path):
    store = ResultStore(tmp_path)
    run_sweep(families=[TINY], schemes=SCHEMES, config=CONFIG,
              store=store, workers=1)
    before = len(store.read_timings())
    rerun = run_sweep(families=[TINY], schemes=SCHEMES, config=CONFIG,
                      store=store, workers=1)
    assert rerun.executed == 0 and rerun.cache_hits == rerun.total_runs
    assert len(store.read_timings()) == before  # cache hits cost no lines
    assert rerun.task_stats == {}
    assert "kernel.runs" not in rerun.obs.get("counters", {})


def test_sweep_json_carries_wall_s_attempts_and_obs(tmp_path):
    from repro.sweep.report import sweep_to_json

    result = run_sweep(families=[TINY], schemes=SCHEMES, config=CONFIG,
                       store=ResultStore(tmp_path), workers=1)
    payload = json.loads(sweep_to_json(result))
    assert payload["accounting"]["timeouts"] == 0
    assert payload["obs"]["counters"]["kernel.runs"] == result.executed
    for entry in payload["runs"]:
        assert entry["wall_s"] > 0
        assert entry["attempts"] == 1
    # A resumed sweep serves from cache: no supervisor accounting to report.
    rerun = run_sweep(families=[TINY], schemes=SCHEMES, config=CONFIG,
                      store=ResultStore(tmp_path), workers=1)
    for entry in json.loads(sweep_to_json(rerun))["runs"]:
        assert "wall_s" not in entry and "attempts" not in entry


def test_timings_ledger_reader_tolerates_torn_lines(tmp_path):
    store = ResultStore(tmp_path)
    store.append_timing({"digest": "d1", "run_s": 0.5})
    with open(store.timings_path, "a") as handle:
        handle.write('{"digest": "d2", "run_s"')
    assert [entry["digest"] for entry in store.read_timings()] == ["d1"]


def test_timings_ledger_reader_tolerates_truncated_final_line(tmp_path):
    # A writer killed mid-write leaves the *existing* final line cut
    # short (no trailing newline) rather than appending a fresh torn one.
    store = ResultStore(tmp_path)
    store.append_timing({"digest": "d1", "run_s": 0.5})
    store.append_timing({"digest": "d2", "run_s": 0.7})
    text = store.timings_path.read_text()
    store.timings_path.write_text(text[:-15])
    assert [entry["digest"] for entry in store.read_timings()] == ["d1"]

"""Insight-layer tests: the energy-savings waterfall (exact attribution
of every scheme's kWh delta vs its no-sleep twin), the cross-store reader
(query/drift), the live sweep dashboard and its non-TTY fallback, and the
extended observe-don't-perturb guard rail (a watched + traced + queried
sweep's store stays byte-identical to a plain serial run)."""

import io
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from repro.core.schemes import no_sleep, soi, standard_schemes
from repro.obs import SimTracer
from repro.obs.explain import explain_run, render_waterfall
from repro.obs.insight import drift, percentile, query_runs
from repro.obs.progress import (
    WATCH_MARKER,
    ProgressSink,
    SweepDashboard,
    notify,
    render_store_top,
)
from repro.resilience.supervisor import TaskFailure
from repro.simulation.runner import scheme_run_seed
from repro.sweep import catalog
from repro.sweep.catalog import ScenarioFamily, ScenarioSpec
from repro.sweep.engine import SweepConfig, expand_tasks, run_sweep
from repro.sweep.store import ResultStore

TINY = ScenarioFamily(
    name="tiny",
    description="test family",
    base=ScenarioSpec(label="tiny", num_clients=6, num_gateways=3,
                      duration_s=900.0, seed=3),
    grid=(("density", (1.5, 2.5)),),
)
SCHEMES = [no_sleep(), soi()]
CONFIG = SweepConfig(runs_per_scheme=1, step_s=5.0, sample_interval_s=60.0)


# ----------------------------------------------------------------------
# Energy attribution: the waterfall sums exactly, per scheme, per family
# ----------------------------------------------------------------------
@pytest.mark.parametrize("family_name", ["smoke", "smoke-watt"])
def test_waterfall_sums_exactly_for_every_scheme(family_name):
    family = catalog.family(family_name)
    schemes = family.default_schemes() or standard_schemes()
    for spec in family.expand():
        scenario = spec.build()
        for scheme in schemes:
            seed = scheme_run_seed(spec.seed, 0, scheme.name)
            payload = explain_run(scenario, scheme, seed, step_s=2.0)
            delta = payload["no_sleep_kwh"] - payload["scheme_kwh"]
            total = sum(row["kwh"] for row in payload["rows"])
            # The acceptance bar: components sum to the twin delta within
            # 1e-9 kWh (3.6 mJ), with the residual itself inside the bar.
            assert abs(total - delta) <= 1e-9, (family_name, scheme.name)
            assert abs(payload["residual_kwh"]) <= 1e-9, (family_name, scheme.name)
            assert payload["delta_kwh"] == pytest.approx(delta, abs=0.0)


def test_waterfall_attributes_sleep_savings_and_fleet_generations():
    family = catalog.family("smoke-watt")
    spec = family.expand()[0]
    scenario = spec.build()
    seed = scheme_run_seed(spec.seed, 0, "bh2-watts")
    scheme = next(s for s in (family.default_schemes() or [])
                  if s.name == "bh2-watts")
    payload = explain_run(scenario, scheme, seed, step_s=2.0)
    rows = payload["rows"]
    generations = {row["generation"] for row in rows if row["generation"]}
    # The tri-mix fleet's generations each get their own waterfall rows.
    assert {"legacy-9w", "efficient-5w", "deepsleep-7w"} <= generations
    gross = sum(r["kwh"] for r in rows if r["component"] == "gross sleep savings")
    standby = sum(r["kwh"] for r in rows if r["component"] == "standby draw")
    assert gross > 0.0          # sleeping saved active watts...
    assert standby < 0.0        # ...but deep-sleep hardware still draws
    assert payload["delta_kwh"] > 0.0
    # The twin of no-sleep is itself: the explainer degenerates to zero.
    zero = explain_run(scenario, no_sleep(),
                       scheme_run_seed(spec.seed, 0, "no-sleep"), step_s=2.0)
    assert zero["delta_kwh"] == pytest.approx(0.0, abs=1e-12)
    assert render_waterfall(payload)  # renders without error


# ----------------------------------------------------------------------
# Query: one row per record file of the store, filters, metric column
# ----------------------------------------------------------------------
def test_warehouse_ingest_matches_manifest_and_is_idempotent(tmp_path):
    store = ResultStore(tmp_path / "store")
    result = run_sweep(families=[TINY], schemes=SCHEMES, config=CONFIG,
                       store=store, workers=1)
    digests = store.digests()
    rows = query_runs([store])
    assert len(rows) == len(digests) == result.total_runs
    assert sorted(row["digest"] for row in rows) == digests
    # The rows come from the record files alone: a fresh store object
    # over the same directory reads the same rows.
    assert query_runs([ResultStore(store.root)]) == rows
    # Filters and the pulled-out metric column.
    soi_rows = query_runs([store], scheme="SoI", metric="mean_savings_percent")
    assert soi_rows and all(row["scheme"] == "SoI" for row in soi_rows)
    assert all(isinstance(row["mean_savings_percent"], float)
               for row in soi_rows)
    by_digest = query_runs([store], digest=soi_rows[0]["digest"][:12])
    assert len(by_digest) == 1


def test_sweep_import_does_not_load_sqlite3():
    # The insight layer reads the stores themselves; no second index.
    src = str(Path(__file__).resolve().parents[1] / "src")
    script = "import sys, repro.sweep; print('sqlite3' in sys.modules)"
    output = subprocess.run(
        [sys.executable, "-c", script],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True, check=True,
    )
    assert output.stdout.strip() == "False"


# ----------------------------------------------------------------------
# Drift: the same digest in two stores must carry identical metrics
# ----------------------------------------------------------------------
def test_drift_flags_metric_and_wall_time_regressions(tmp_path):
    store_a = ResultStore(tmp_path / "a")
    run_sweep(families=[TINY], schemes=SCHEMES, config=CONFIG,
              store=store_a, workers=1)
    # Synthesize "the same sweep at a later sha": clone the store, then
    # silently change one record's metrics and slow another cell down.
    store_b_root = tmp_path / "b"
    shutil.copytree(store_a.root, store_b_root)
    victim = sorted((store_b_root / "runs").glob("*.json"))[0]
    payload = json.loads(victim.read_text())
    payload["metrics"]["mean_savings_percent"] += 1.0
    victim.write_text(json.dumps(payload, sort_keys=True))
    timings_path = store_b_root / "timings.jsonl"
    lines = [json.loads(line) for line in timings_path.read_text().splitlines()]
    slow = next(line for line in lines if line["digest"] != payload["digest"])
    slow["run_s"] = slow["run_s"] * 100.0 + 5.0
    timings_path.write_text(
        "".join(json.dumps(line, sort_keys=True) + "\n" for line in lines)
    )
    findings = drift([store_a, ResultStore(store_b_root)])
    # Only the metric change is drift: wall time is no drift criterion,
    # so the 100x slower cell yields no finding.
    assert len(findings) == 1
    finding = findings[0]
    assert finding["digest"] == payload["digest"]
    assert finding["metrics"] == ["mean_savings_percent"]
    assert (finding["from_store"], finding["to_store"]) == (
        str(store_a.root), str(store_b_root)
    )


def test_drift_is_silent_on_identical_reingest(tmp_path):
    store = ResultStore(tmp_path / "store")
    run_sweep(families=[TINY], schemes=SCHEMES, config=CONFIG,
              store=store, workers=1)
    # Same bytes under a second store path == a re-sweep at a new sha
    # that reproduced everything exactly: no drift.
    clone = tmp_path / "clone"
    shutil.copytree(store.root, clone)
    assert drift([store, ResultStore(clone)]) == []


# ----------------------------------------------------------------------
# Dashboard: event feed, non-TTY fallback, sink isolation
# ----------------------------------------------------------------------
def test_dashboard_plain_fallback_renders_every_event():
    tasks = expand_tasks([TINY], SCHEMES, CONFIG)
    stream = io.StringIO()
    dashboard = SweepDashboard(stream=stream, force_plain=True)
    dashboard.sweep_started(tasks, {tasks[0].digest})
    dashboard.task_started(tasks[1], 0)
    dashboard.task_done(tasks[1], 0, 0.5)
    dashboard.task_retry(tasks[2], 0, "error")
    dashboard.task_started(tasks[2], 1)
    dashboard.task_timeout(tasks[2], 1)
    dashboard.worker_respawn(3, -9)
    failure = TaskFailure(
        digest=tasks[2].digest, family=tasks[2].family,
        label=tasks[2].spec.label, scheme=tasks[2].scheme.name,
        run_index=tasks[2].run_index, attempts=2, kind="timeout", reason="hung",
    )
    dashboard.task_failed(failure)
    dashboard.degraded(4)
    dashboard.sweep_finished()
    out = stream.getvalue()
    assert all(line.startswith(WATCH_MARKER)
               for line in out.splitlines() if line)
    assert f"sweep started: {len(tasks)} cell(s), 1 cached" in out
    assert "done tiny/" in out and "retry tiny/" in out
    assert "timeout tiny/" in out and "respawn worker=3" in out
    assert "FAILED tiny/" in out and "degraded to serial" in out
    assert "sweep finished:" in out
    # The TTY block renderer works off the same state.
    lines = dashboard.render_lines()
    assert any("tiny" in line and "/" in line for line in lines)
    assert any("throughput" in line for line in lines)
    assert any("FAILED" in line for line in lines)


def test_notify_swallows_sink_exceptions():
    class Exploding(ProgressSink):
        def task_done(self, task, attempt, wall_s):
            raise RuntimeError("sink bug")

    notify(Exploding(), "task_done", None, 0, 0.0)  # must not raise
    notify(Exploding(), "no_such_method")           # must not raise
    notify(None, "task_done", None, 0, 0.0)         # no sink: no-op


def test_watched_sweep_reports_cached_cells(tmp_path):
    store = ResultStore(tmp_path)
    run_sweep(families=[TINY], schemes=SCHEMES, config=CONFIG,
              store=store, workers=1)
    stream = io.StringIO()
    dashboard = SweepDashboard(stream=stream, force_plain=True)
    rerun = run_sweep(families=[TINY], schemes=SCHEMES, config=CONFIG,
                      store=store, workers=1, progress=dashboard)
    assert rerun.executed == 0
    out = stream.getvalue()
    assert f"{rerun.total_runs} cached" in out and "0 to run" in out
    assert "sweep finished:" in out


# ----------------------------------------------------------------------
# The extended guard rail: watched + traced + queried == plain bytes
# ----------------------------------------------------------------------
def test_watched_traced_ingested_store_is_byte_identical(tmp_path):
    plain_store = ResultStore(tmp_path / "plain")
    run_sweep(families=[TINY], schemes=SCHEMES, config=CONFIG,
              store=plain_store, workers=1)
    watched_store = ResultStore(tmp_path / "watched")
    stream = io.StringIO()
    result = run_sweep(
        families=[TINY], schemes=SCHEMES, config=CONFIG,
        store=watched_store, workers=1,
        tracer=SimTracer(),
        progress=SweepDashboard(stream=stream, force_plain=True),
    )
    assert not result.failures and stream.getvalue()
    rows = query_runs([watched_store])
    assert sorted(row["digest"] for row in rows) == watched_store.digests()
    plain_runs = sorted((plain_store.root / "runs").glob("*.json"))
    watched_runs = sorted((watched_store.root / "runs").glob("*.json"))
    assert [p.name for p in plain_runs] == [p.name for p in watched_runs]
    for plain_file, watched_file in zip(plain_runs, watched_runs):
        assert plain_file.read_bytes() == watched_file.read_bytes()


# ----------------------------------------------------------------------
# obs top and the percentile helper
# ----------------------------------------------------------------------
def test_render_store_top_summarises_ledgers(tmp_path):
    store = ResultStore(tmp_path)
    result = run_sweep(families=[TINY], schemes=SCHEMES, config=CONFIG,
                       store=store, workers=1)
    frame = render_store_top(store)
    assert f"records         : {result.total_runs}" in frame
    assert "tiny" in frame and "sim hours" in frame


def test_percentile_nearest_rank():
    values = list(range(1, 101))
    assert percentile(values, 50) == 50
    assert percentile(values, 95) == 95
    assert percentile(values, 99) == 99
    assert percentile(values, 0) == 1
    assert percentile(values, 100) == 100
    assert percentile([7.0], 99) == 7.0
    with pytest.raises(ValueError):
        percentile([], 50)
    with pytest.raises(ValueError):
        percentile([1.0], 101)

"""Sweep engine tests: determinism, caching, crash-safe resume."""

import builtins
import gc
import os
import weakref
from collections import Counter
from dataclasses import replace

import pytest

from repro.core.schemes import no_sleep, soi, standard_schemes
from repro.flows.scheduler import FlowScheduler
from repro.obs.metrics import PASS_COUNTERS
from repro.resilience.supervisor import RetryPolicy
from repro.sweep import engine
from repro.sweep.catalog import ScenarioFamily, ScenarioSpec, resolve_families
from repro.sweep.engine import SweepConfig, expand_tasks, run_metrics, run_sweep
from repro.sweep.store import ResultStore
from repro.simulation.runner import run_scheme, scheme_run_seed
from repro.traces.synthetic import SyntheticTraceGenerator

TINY = ScenarioFamily(
    name="tiny",
    description="test family",
    base=ScenarioSpec(label="tiny", num_clients=6, num_gateways=3, duration_s=900.0, seed=3),
    grid=(("density", (1.5, 2.5)),),
)
SCHEMES = [no_sleep(), soi()]
CONFIG = SweepConfig(runs_per_scheme=2, step_s=5.0, sample_interval_s=60.0)


_REAL_SUM = builtins.sum


def _compensated_sum(values, start=0):
    """Python 3.12's built-in sum() of floats (Neumaier compensation)."""
    values = list(values)
    if not all(isinstance(v, float) for v in values):
        return _REAL_SUM(values, start)
    total = float(start)
    compensation = 0.0
    for value in values:
        t = total + value
        if abs(total) >= abs(value):
            compensation += (total - t) + value
        else:
            compensation += (value - t) + total
        total = t
    return total + compensation


def test_gateway_kwh_adds_generation_energy_left_to_right(monkeypatch):
    # Generation energies of the paper-scale cell
    # mixed-fleet[fleet=tri-mix]/BH2+k-switch (run seed 2866).  Added left
    # to right they give the stored ...136; a compensated sum gives ...134.
    energies = {
        "legacy-9w": float.fromhex("0x1.1e900c6e76efcp+21"),
        "efficient-5w": float.fromhex("0x1.267c88d536953p+20"),
        "deepsleep-7w": float.fromhex("0x1.eae477b58fc9ep+19"),
    }
    assert _compensated_sum(energies.values()) / 3.6e6 == 1.2664127352514134
    scenario = TINY.expand()[0].build()
    result = replace(
        run_scheme(scenario, soi(), step_s=5.0),
        generation_energy_j=energies,
        generation_counts={"legacy-9w": 1, "efficient-5w": 1, "deepsleep-7w": 1},
    )
    assert run_metrics(result, 900.0)["gateway_kwh"] == 1.2664127352514136
    # The stored value does not depend on the interpreter's sum().
    monkeypatch.setattr(builtins, "sum", _compensated_sum)
    assert run_metrics(result, 900.0)["gateway_kwh"] == 1.2664127352514136


def test_means_add_repetitions_and_scenarios_left_to_right(monkeypatch):
    # Ten repetitions, the paper's protocol, over three scenarios.  Added
    # left to right, 0.012 ten times gives 0.11999999999999998 and
    # 1 + 2**-53 + 2**-53 gives 1.0; a compensated sum gives 0.12 and
    # 1 + 2**-52.
    from repro.analysis import report
    from repro.sweep.engine import SweepResult
    from repro.sweep.report import overview_table
    from repro.sweep.store import RunRecord

    def left_to_right(values):
        total = 0.0
        for value in values:
            total += value
        return total / len(values)

    family = replace(TINY, grid=(("density", (1.5, 2.0, 2.5)),))
    tasks = expand_tasks([family], [no_sleep()], SweepConfig(runs_per_scheme=10))
    savings = dict(zip(family.expand(), (1.0, 2.0**-53, 2.0**-53)))
    result = SweepResult(tasks=tasks, records={
        task.digest: RunRecord(
            digest=task.digest, family=task.family, label=task.spec.label,
            scheme=task.scheme.name, run_index=task.run_index, seed=task.seed,
            duration_s=task.spec.duration_s,
            metrics={"gateway_kwh": 0.012, "mean_savings_percent": savings[task.spec]},
        )
        for task in tasks
    })
    kwh = left_to_right([0.012] * 10)
    assert kwh != _compensated_sum([0.012] * 10) / 10
    means = [left_to_right([value] * 10) for value in savings.values()]
    overview = left_to_right(means)
    assert overview != _compensated_sum(means) / 3
    tables = []
    monkeypatch.setattr(report, "format_table", lambda headers, rows: tables.append(rows))
    monkeypatch.setattr(builtins, "sum", _compensated_sum)
    rows = result.aggregates()
    assert [row["gateway_kwh"] for row in rows] == [kwh] * 3
    assert [row["mean_savings_percent"] for row in rows] == means
    overview_table(result)
    assert tables == [[["tiny", "no-sleep", 3, overview]]]


def test_expand_tasks_grid_shape_and_seeding():
    tasks = expand_tasks([TINY], SCHEMES, CONFIG)
    assert len(tasks) == 2 * 2 * 2  # scenarios x schemes x repetitions
    assert len({t.digest for t in tasks}) == len(tasks)
    for task in tasks:
        assert task.seed == scheme_run_seed(task.spec.seed, task.run_index, task.scheme.name)


def test_serial_and_parallel_aggregates_are_bit_identical():
    serial = run_sweep(families=[TINY], schemes=SCHEMES, config=CONFIG)
    parallel = run_sweep(families=[TINY], schemes=SCHEMES, config=CONFIG, workers=2)
    assert serial.aggregates() == parallel.aggregates()
    assert serial.executed == parallel.executed == 8


def test_second_invocation_is_served_from_cache(tmp_path):
    store = ResultStore(tmp_path)
    first = run_sweep(families=[TINY], schemes=SCHEMES, config=CONFIG, store=store)
    assert first.executed == 8 and first.cache_hits == 0
    second = run_sweep(families=[TINY], schemes=SCHEMES, config=CONFIG, store=store)
    assert second.executed == 0
    assert second.cache_hit_fraction == 1.0
    assert second.aggregates() == first.aggregates()


def test_interrupted_sweep_resumes_to_identical_aggregates(tmp_path):
    reference = run_sweep(families=[TINY], schemes=SCHEMES, config=CONFIG)

    store = ResultStore(tmp_path)
    full = run_sweep(families=[TINY], schemes=SCHEMES, config=CONFIG, store=store)
    # Simulate a sweep killed mid-run: some records never made it to disk.
    lost = full.tasks[1].digest, full.tasks[5].digest
    for digest in lost:
        store.path_for(digest).unlink()
    resumed = run_sweep(families=[TINY], schemes=SCHEMES, config=CONFIG, store=store, workers=2)
    assert resumed.executed == len(lost)
    assert resumed.cache_hits == 8 - len(lost)
    assert resumed.aggregates() == reference.aggregates()


def test_resume_recomputes_only_a_corrupt_record(tmp_path):
    store = ResultStore(tmp_path)
    first = run_sweep(families=[TINY], schemes=SCHEMES, config=CONFIG, store=store)
    victim = sorted(first.records)[0]
    original = store.path_for(victim).read_bytes()
    store.path_for(victim).write_text("not json")
    resumed = run_sweep(
        families=[TINY], schemes=SCHEMES, config=CONFIG, store=ResultStore(tmp_path)
    )
    assert resumed.executed == 1
    assert store.path_for(victim).read_bytes() == original


def test_no_resume_recomputes_but_matches(tmp_path):
    store = ResultStore(tmp_path)
    first = run_sweep(families=[TINY], schemes=SCHEMES, config=CONFIG, store=store)
    fresh = run_sweep(
        families=[TINY], schemes=SCHEMES, config=CONFIG, store=store, use_cache=False
    )
    assert fresh.executed == 8
    assert fresh.aggregates() == first.aggregates()


def test_duplicate_physical_scenarios_run_once():
    alias = ScenarioFamily(name="alias", description="same physics", base=TINY.base, grid=TINY.grid)
    config = SweepConfig(runs_per_scheme=1, step_s=5.0)
    result = run_sweep(families=[TINY, alias], schemes=[no_sleep()], config=config)
    assert result.total_runs == 4  # both families appear in the grid...
    assert result.executed == 2    # ...but each physical run happens once
    rows = result.aggregates()
    tiny_rows = [r for r in rows if r["family"] == "tiny"]
    alias_rows = [r for r in rows if r["family"] == "alias"]
    assert [r["mean_savings_percent"] for r in tiny_rows] == \
        [r["mean_savings_percent"] for r in alias_rows]


def test_repeated_family_selection_is_a_noop():
    config = SweepConfig(runs_per_scheme=1, step_s=5.0)
    once = run_sweep(families=[TINY], schemes=[no_sleep()], config=config)
    twice = run_sweep(families=[TINY, TINY], schemes=[no_sleep()], config=config)
    assert twice.total_runs == once.total_runs == 2
    assert twice.aggregates() == once.aggregates()


def test_repeated_scheme_selection_is_a_noop():
    config = SweepConfig(runs_per_scheme=1, step_s=5.0)
    once = run_sweep(families=[TINY], schemes=[no_sleep()], config=config)
    twice = run_sweep(families=[TINY], schemes=[no_sleep(), no_sleep()], config=config)
    assert twice.total_runs == once.total_runs == 2
    assert twice.executed == once.executed == 2
    assert twice.aggregates() == once.aggregates()


def test_run_sweep_validation(tmp_path):
    with pytest.raises(ValueError, match="workers"):
        run_sweep(families=[TINY], schemes=SCHEMES, config=CONFIG, workers=0)
    with pytest.raises(ValueError, match="families"):
        run_sweep(families=[], schemes=SCHEMES, config=CONFIG)
    with pytest.raises(KeyError, match="known families"):
        run_sweep(family_names=["nope"], schemes=SCHEMES, config=CONFIG)
    with pytest.raises(ValueError, match="runs_per_scheme"):
        SweepConfig(runs_per_scheme=0)


def test_sweep_cells_build_no_flow_records(monkeypatch):
    """Served demand comes from the kernel's counters, not from records.

    ``smoke`` alone would prove nothing here: its half-hour trace has no
    flows.  These two families complete (and, under the DSLAM outage,
    drop) hundreds of flows per cell.
    """
    families = resolve_families(["smoke-watt", "correlated-outage"])
    expected = run_sweep(families=families)
    assert any(r.metrics["served_flows"] for r in expected.records.values())

    def refuse(self):
        raise AssertionError("a sweep cell built FlowRecords")

    monkeypatch.setattr(FlowScheduler, "records", refuse)
    patched = run_sweep(families=families)
    assert patched.executed == expected.executed == len(expected.tasks)
    for digest, record in expected.records.items():
        stored = patched.records[digest].metrics
        for name in ("served_flows", "served_demand_gb"):
            assert stored[name] == record.metrics[name], (record.label, record.scheme, name)


def _set_gc(enabled):
    if enabled:
        gc.enable()
    else:
        gc.disable()


@pytest.fixture
def restore_gc():
    """Restore the collector's state, and unfreeze what a direct call froze."""
    was_enabled = gc.isenabled()
    yield
    engine._drop_scenarios()
    _set_gc(was_enabled)


@pytest.mark.parametrize("enabled", [True, False], ids=["gc-on", "gc-off"])
def test_execute_task_pauses_gc_and_restores_it(monkeypatch, restore_gc, enabled):
    task = expand_tasks([TINY], [soi()], CONFIG)[0]
    seen = []
    real_run_metrics = engine.run_metrics

    def spy(result, duration_s):
        seen.append(gc.isenabled())
        return real_run_metrics(result, duration_s)

    monkeypatch.setattr(engine, "run_metrics", spy)
    _set_gc(enabled)
    output = engine._execute_task(task)
    assert gc.isenabled() is enabled
    assert seen == [False]  # metric extraction ran inside the pause
    assert output.record.digest == task.digest


@pytest.mark.parametrize("enabled", [True, False], ids=["gc-on", "gc-off"])
def test_execute_task_restores_gc_when_the_kernel_raises(monkeypatch, restore_gc, enabled):
    task = expand_tasks([TINY], [soi()], CONFIG)[0]

    def broken_kernel(*args, **kwargs):
        raise RuntimeError("kernel failed")

    monkeypatch.setattr(engine, "run_scheme", broken_kernel)
    # A memoised pass over this cell's trajectory would serve it unrun.
    monkeypatch.setattr(engine, "_RUN_MEMO", {})
    _set_gc(enabled)
    with pytest.raises(RuntimeError, match="kernel failed"):
        engine._execute_task(task)
    assert gc.isenabled() is enabled


@pytest.fixture
def generations(monkeypatch, tmp_path):
    """Pids of the processes that generated a trace, one per generation.

    The wrapper appends to a file, so forked workers, which inherit the
    patch, report their generations too.
    """
    log = tmp_path / "generations"
    log.touch()
    real_generate = SyntheticTraceGenerator.generate

    def counting(self):
        with open(log, "a") as handle:
            handle.write(f"{os.getpid()}\n")
        return real_generate(self)

    monkeypatch.setattr(SyntheticTraceGenerator, "generate", counting)
    return lambda: [int(pid) for pid in log.read_text().split()]


def test_a_cache_miss_reuses_the_trace_only_when_the_trace_key_matches():
    other = ScenarioFamily(
        name="other", description="another seed, so another trace",
        base=replace(TINY.base, label="other", seed=4),
    )
    first, _, same_trace, _ = expand_tasks([TINY], [soi()], CONFIG)
    new_trace = expand_tasks([other], [soi()], CONFIG)[0]
    engine._SCENARIO_CACHE.clear()
    try:
        engine._execute_task(first)
        trace = engine._SCENARIO_CACHE[first.spec].trace
        engine._execute_task(same_trace)
        assert engine._SCENARIO_CACHE[same_trace.spec].trace is trace
        engine._execute_task(new_trace)
        built = engine._SCENARIO_CACHE[new_trace.spec].trace
        assert built is not trace
        assert built.home_gateway == new_trace.spec.build().trace.home_gateway
    finally:
        engine._drop_scenarios()


def test_serial_sweep_generates_a_shared_trace_once(generations):
    families = resolve_families(["correlated-outage"])
    specs = families[0].expand()
    assert len(specs) == 2 and len({spec.trace_key() for spec in specs}) == 1
    result = run_sweep(families=families)
    assert result.executed == len(result.tasks) == 10
    assert generations() == [os.getpid()]


def test_pooled_sweep_generates_a_shared_trace_once_per_worker(generations):
    result = run_sweep(family_names=["correlated-outage"], workers=2)
    assert result.executed == len(result.tasks) and not result.degraded
    pids = generations()
    assert pids, "no worker generated a trace"
    assert os.getpid() not in pids
    assert len(pids) == len(set(pids)) <= 2


SMOKE = resolve_families(["smoke"])[0]
#: ``smoke``'s half hour has no flows, so four of the standard schemes
#: store equal metrics there; with every client online they all differ.
BUSY_SMOKE = ScenarioFamily(
    name="busy-smoke",
    description="smoke with every client online",
    base=replace(
        SMOKE.base, label="busy-smoke", trace_overrides=(("peak_online_probability", 1.0),)
    ),
)


def _stored_bytes(store):
    return {path.name: path.read_bytes() for path in store.runs_dir.glob("*.json")}


@pytest.mark.parametrize("family", [SMOKE, BUSY_SMOKE], ids=lambda family: family.name)
def test_serial_sweep_runs_each_seed_free_scheme_once(monkeypatch, tmp_path, family):
    """Repetitions of a scheme that ignores its run seed reuse its first run.

    Of the five standard schemes only BH2+k-switch reads the run seed, and
    SoI+k-switch shares SoI's trajectory, so three repetitions cost 3 + 3
    kernel passes instead of 15.  No kernel starts while an earlier pass's
    result is alive, and every record still holds the metrics of a kernel
    run of its own scheme at its own seed.  A pooled sweep and a resumed
    one (whose repeats have no twin) store the same bytes.
    """
    families = [family]
    config = SweepConfig(runs_per_scheme=3)
    schemes = standard_schemes()
    runs = Counter()
    returned = []

    def spy(scenario, scheme, **kwargs):
        assert all(ref() is None for ref in returned), "an earlier run is alive"
        assert not engine._RUN_MEMO, "a kernel started beside a memoised run"
        results = run_scheme(scenario, scheme, **kwargs)
        runs[scheme.name] += 1
        returned.extend(weakref.ref(result) for result in results)
        return results

    def metrics_spy(result, duration_s):
        # The held copy must not keep the run's flows alive through its
        # lazy flow records: it holds a plain empty list instead.
        assert all(type(held.flow_records) is list for held in engine._RUN_MEMO.values())
        return run_metrics(result, duration_s)

    monkeypatch.setattr(engine, "run_scheme", spy)
    monkeypatch.setattr(engine, "run_metrics", metrics_spy)
    serial = ResultStore(tmp_path / "serial")
    result = run_sweep(families=families, schemes=schemes, config=config, store=serial)
    monkeypatch.undo()
    assert result.executed == len(result.tasks) == 15
    assert runs == {"no-sleep": 1, "SoI": 1, "BH2+k-switch": 3, "Optimal": 1}
    for task in result.tasks:
        alone = run_scheme(
            task.spec.build(), task.scheme, seed=task.seed, step_s=task.step_s,
            sample_interval_s=task.sample_interval_s,
        )
        assert result.records[task.digest].metrics == run_metrics(
            alone, task.spec.duration_s
        ), (task.scheme.name, task.run_index)

    stored = _stored_bytes(serial)
    assert len(stored) == 15
    pooled = ResultStore(tmp_path / "pooled")
    run_sweep(families=families, schemes=schemes, config=config, store=pooled, workers=2)
    assert _stored_bytes(pooled) == stored

    for task in result.tasks:
        if task.run_index == 1:
            serial.path_for(task.digest).unlink()
    resumed = run_sweep(families=families, schemes=schemes, config=config, store=serial)
    assert resumed.executed == 5
    assert _stored_bytes(serial) == stored


def test_work_counters_count_each_kernel_pass_once(monkeypatch):
    """A cell served from another cell's pass adds none of its work.

    ``kernel.runs`` still counts executed cells.
    """
    passes = []

    def spy(scenario, scheme, **kwargs):
        results = run_scheme(scenario, scheme, **kwargs)
        passes.append(results[0])
        return results

    monkeypatch.setattr(engine, "run_scheme", spy)
    result = run_sweep(
        families=[BUSY_SMOKE], schemes=standard_schemes(),
        config=SweepConfig(runs_per_scheme=2),
    )
    counters = result.obs["counters"]
    assert result.executed == 10 and len(passes) == 5
    assert counters["kernel.runs"] == result.executed
    for name, attribute in PASS_COUNTERS:
        assert counters[name] == sum(getattr(each, attribute) for each in passes), name
    assert counters["kernel.solver_invocations"] > 0 and counters["kernel.bh2_rounds"] > 0


@pytest.fixture
def unfrozen():
    """Start from no frozen objects."""
    gc.unfreeze()


@pytest.mark.parametrize("enabled", [True, False], ids=["gc-on", "gc-off"])
@pytest.mark.parametrize("workers", [1, 2], ids=["serial", "pooled"])
def test_run_sweep_leaves_nothing_frozen(monkeypatch, restore_gc, unfrozen, workers, enabled):
    frozen_during_cells = []
    real_run_metrics = engine.run_metrics

    def spy(result, duration_s):
        frozen_during_cells.append(gc.get_freeze_count())
        return real_run_metrics(result, duration_s)

    monkeypatch.setattr(engine, "run_metrics", spy)
    _set_gc(enabled)
    result = run_sweep(families=[TINY], schemes=SCHEMES, config=CONFIG, workers=workers)
    assert result.executed == len(result.tasks) and not result.degraded
    assert gc.get_freeze_count() == 0
    assert gc.isenabled() is enabled
    if workers == 1:
        # Each built scenario stays frozen while its cells run.
        assert len(frozen_during_cells) == len(result.tasks)
        assert all(count > 0 for count in frozen_during_cells)


@pytest.mark.parametrize("enabled", [True, False], ids=["gc-on", "gc-off"])
def test_a_build_that_raises_leaves_nothing_frozen(monkeypatch, restore_gc, unfrozen, enabled):
    real_build = ScenarioSpec.build

    def build(self, trace=None):
        if self.density == 2.5:
            raise RuntimeError("build failed")
        return real_build(self, trace=trace)

    monkeypatch.setattr(ScenarioSpec, "build", build)
    _set_gc(enabled)
    first, *_, last = expand_tasks([TINY], SCHEMES, CONFIG)
    assert last.spec.density == 2.5
    engine._execute_task(first)
    assert gc.get_freeze_count() > 0
    with pytest.raises(RuntimeError, match="build failed"):
        engine._execute_task(last)
    assert gc.isenabled() is enabled
    assert gc.get_freeze_count() == 0  # the failed build dropped the frozen one
    result = run_sweep(
        families=[TINY], schemes=SCHEMES, config=CONFIG,
        retry=RetryPolicy(max_retries=0, keep_going=True),
    )
    assert len(result.failures) == 4 and len(result.records) == 4
    assert gc.get_freeze_count() == 0
    assert gc.isenabled() is enabled

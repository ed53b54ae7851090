"""Resilience tests: deterministic chaos plans, supervised execution,
retry/rescue semantics, and the bit-identity invariant under injected
worker crashes, hangs, raises and torn store writes."""

import os
import threading

import pytest

from repro.core.schemes import no_sleep, soi, soi_kswitch
from repro.resilience.faults import (
    ChaosConfig,
    FaultKind,
    FaultPlan,
    FaultSpec,
    build_plan,
)
from repro.resilience.supervisor import (
    RetryPolicy,
    SweepExecutionError,
    SweepInterrupted,
    run_serial_supervised,
    run_supervised,
)
from repro.sweep import engine
from repro.sweep.catalog import ScenarioFamily, ScenarioSpec
from repro.sweep.engine import SweepConfig, expand_tasks, run_sweep
from repro.sweep.store import ResultStore

TINY = ScenarioFamily(
    name="tiny",
    description="test family",
    base=ScenarioSpec(label="tiny", num_clients=6, num_gateways=3, duration_s=900.0, seed=3),
    grid=(("density", (1.5, 2.5)),),
)
SCHEMES = [no_sleep(), soi()]
CONFIG = SweepConfig(runs_per_scheme=2, step_s=5.0, sample_interval_s=60.0)


def store_bytes(root):
    """Filename -> raw bytes of every record file in a store."""
    runs = os.path.join(root, "runs")
    return {
        name: open(os.path.join(runs, name), "rb").read()
        for name in os.listdir(runs)
        if name.endswith(".json")
    }


# ----------------------------------------------------------------------
# Fault plans
# ----------------------------------------------------------------------
def test_chaos_config_parse_and_validation():
    chaos = ChaosConfig.parse("crash=1, hang=2,raise=1,torn=1", seed=9)
    assert (chaos.crashes, chaos.hangs, chaos.raises, chaos.torn_writes) == (1, 2, 1, 1)
    assert chaos.seed == 9 and chaos.total == 5
    assert ChaosConfig.parse("crash").crashes == 1  # bare kind means one
    with pytest.raises(ValueError, match="unknown fault kind"):
        ChaosConfig.parse("explode=1")
    with pytest.raises(ValueError, match="must be an integer"):
        ChaosConfig.parse("crash=lots")
    with pytest.raises(ValueError, match="non-negative"):
        ChaosConfig(crashes=-1)


def test_fault_plan_is_deterministic_and_seed_sensitive():
    digests = [f"{i:064x}" for i in range(10)]
    plan_a = build_plan(digests, ChaosConfig(crashes=1, torn_writes=1, seed=5))
    plan_b = build_plan(digests, ChaosConfig(crashes=1, torn_writes=1, seed=5))
    assert plan_a == plan_b  # same grid + same seed -> same plan
    other_seed = build_plan(digests, ChaosConfig(crashes=1, torn_writes=1, seed=6))
    assert {f.digest for f in plan_a.faults} != {f.digest for f in other_seed.faults}
    # Victims are distinct: one fault per cell, so retries converge.
    victims = [f.digest for f in plan_a.faults]
    assert len(victims) == len(set(victims)) == 2


def test_fault_plan_lookup_respects_attempt_binding():
    plan = FaultPlan(faults=(FaultSpec(digest="d1", kind=FaultKind.CRASH),))
    assert plan.fault_for("d1", 0) is FaultKind.CRASH
    assert plan.fault_for("d1", 1) is None  # the retry runs clean
    assert plan.worker_fault("d1", 0) is FaultKind.CRASH
    torn = FaultPlan(faults=(FaultSpec(digest="d2", kind=FaultKind.TORN_WRITE),))
    assert torn.worker_fault("d2", 0) is None  # parent-side kind


def test_plan_truncates_to_grid_size():
    plan = build_plan(["only"], ChaosConfig(crashes=3, hangs=3, seed=1))
    assert len(plan.faults) == 1  # surplus dropped, never doubled up


# ----------------------------------------------------------------------
# The load-bearing invariant: chaos store == clean serial store, by bytes
# ----------------------------------------------------------------------
def test_chaos_battered_parallel_sweep_store_is_bit_identical(tmp_path):
    """Worker SIGKILL (os._exit), hang, raise and a torn store write all
    injected into one parallel sweep; the rescued store must match a
    clean serial run byte for byte (extends the PR 2 kill-resume test)."""
    clean_dir = tmp_path / "clean"
    chaos_dir = tmp_path / "chaos"
    clean = run_sweep(families=[TINY], schemes=SCHEMES, config=CONFIG,
                      store=ResultStore(clean_dir), workers=1)
    assert not clean.failures
    chaos = ChaosConfig(crashes=1, hangs=1, raises=1, torn_writes=1, seed=7)
    battered = run_sweep(
        families=[TINY], schemes=SCHEMES, config=CONFIG,
        store=ResultStore(chaos_dir), workers=2,
        retry=RetryPolicy(task_timeout_s=30.0, max_retries=3, keep_going=True),
        chaos=chaos,
    )
    assert not battered.failures
    assert battered.retries >= 4  # every injected fault cost one attempt
    assert battered.respawns >= 2  # the crash and the hang killed workers
    assert store_bytes(clean_dir) == store_bytes(chaos_dir)
    assert clean.aggregates() == battered.aggregates()
    # The torn write left exactly the residue a dead writer would: an
    # orphaned .tmp that the stale-tmp GC (not the record set) owns.
    tmps = [n for n in os.listdir(chaos_dir / "runs") if n.endswith(".tmp")]
    # A cell whose result never reached the parent shows up as an extra
    # timeout and as a retried cell with no planned fault; if it was the
    # torn-write victim, the torn write never fired.
    cells = {
        task.digest: f"{task.spec.label}/{task.scheme.name}#{task.run_index} {task.digest[:12]}"
        for task in battered.tasks
    }
    retried = {
        cells[digest]: stats["attempts"]
        for digest, stats in battered.task_stats.items()
        if stats["attempts"] > 1
    }
    planned = {
        cells[fault.digest]: fault.kind.value
        for fault in build_plan(list(cells), chaos).faults
    }
    assert len(tmps) == 1, (
        f"timeouts={battered.timeouts}; retried cells (attempts): {retried}; "
        f"planned faults: {planned}"
    )


def test_serial_chaos_demotes_faults_and_stays_bit_identical(tmp_path):
    clean_dir = tmp_path / "clean"
    chaos_dir = tmp_path / "chaos"
    clean = run_sweep(families=[TINY], schemes=SCHEMES, config=CONFIG,
                      store=ResultStore(clean_dir), workers=1)
    battered = run_sweep(
        families=[TINY], schemes=SCHEMES, config=CONFIG,
        store=ResultStore(chaos_dir), workers=1,
        retry=RetryPolicy(max_retries=1),
        chaos=ChaosConfig(crashes=1, raises=1, torn_writes=1, seed=3),
    )
    assert not battered.failures and battered.retries == 3
    assert store_bytes(clean_dir) == store_bytes(chaos_dir)
    assert clean.aggregates() == battered.aggregates()


# ----------------------------------------------------------------------
# Failure ledger, keep-going, abort
# ----------------------------------------------------------------------
def test_exhausted_retries_abort_without_keep_going():
    with pytest.raises(SweepExecutionError) as excinfo:
        run_sweep(
            families=[TINY], schemes=SCHEMES, config=CONFIG, workers=1,
            retry=RetryPolicy(max_retries=0),
            chaos=ChaosConfig(raises=1, seed=2),
        )
    assert len(excinfo.value.failures) == 1
    assert "tiny" in str(excinfo.value)


def test_keep_going_yields_partial_aggregates_and_ledger(tmp_path):
    result = run_sweep(
        families=[TINY], schemes=SCHEMES, config=CONFIG, workers=1,
        store=ResultStore(tmp_path),
        retry=RetryPolicy(max_retries=0, keep_going=True),
        chaos=ChaosConfig(raises=2, seed=2),
    )
    assert len(result.failures) == 2
    assert all(f.kind == "error" for f in result.failures)
    assert all(f.attempts == 1 for f in result.failures)
    failed = {f.digest for f in result.failures}
    assert failed.isdisjoint(result.records)
    # Aggregates skip the failed cells instead of zero-filling them.
    rows = result.aggregates()
    assert rows  # the surviving cells still aggregate
    total_runs = sum(int(row["runs"]) for row in rows)
    assert total_runs == result.total_runs - len(result.failures)
    # The failed cells are resumable: a retry-free re-run completes them.
    rescue = run_sweep(families=[TINY], schemes=SCHEMES, config=CONFIG,
                       workers=1, store=ResultStore(tmp_path))
    assert not rescue.failures
    assert rescue.executed == len(failed)


def test_supervised_retry_reuses_the_same_task_seed():
    tasks = expand_tasks([TINY], SCHEMES, CONFIG)
    attempts = []

    def execute(task):
        attempts.append(task.seed)
        if len(attempts) == 1:
            raise RuntimeError("first attempt dies")
        return task

    def persist(record, attempt):
        pass

    outcome = run_serial_supervised(
        tasks[:1], execute, persist, RetryPolicy(max_retries=1)
    )
    assert not outcome.failures and outcome.retries == 1
    assert attempts[0] == attempts[1]  # the retry is the *same* task


def test_keyboard_interrupt_surfaces_persisted_count(tmp_path):
    tasks = expand_tasks([TINY], SCHEMES, CONFIG)
    done = []

    def execute(task):
        if len(done) == 2:
            raise KeyboardInterrupt
        return task

    def persist(record, attempt):
        done.append(record.digest)

    with pytest.raises(SweepInterrupted) as excinfo:
        run_serial_supervised(tasks, execute, persist, RetryPolicy())
    assert excinfo.value.completed == 2
    assert excinfo.value.outstanding == len(tasks) - 2


# ----------------------------------------------------------------------
# Supervisor internals: timeout and dead-worker rescue in the pool
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def hang_drill(tmp_path_factory):
    """One pooled sweep whose single hang waits out the 10 s timeout;
    the rescue and the accounting tests both read its result."""
    return run_sweep(
        families=[TINY], schemes=SCHEMES, config=CONFIG,
        store=ResultStore(tmp_path_factory.mktemp("hang_drill")), workers=2,
        retry=RetryPolicy(task_timeout_s=10.0, max_retries=2),
        chaos=ChaosConfig(hangs=1, seed=11),
    )


def test_hang_is_killed_by_timeout_and_rescued(hang_drill):
    result = hang_drill
    assert not result.failures
    assert result.respawns >= 1 and result.retries >= 1
    assert len(result.records) == result.total_runs


def _active_threads(task):
    return threading.active_count()


def test_pooled_sweep_starts_no_helper_threads():
    """No process of the pool runs a helper thread, such as a queue's
    feeder, that could die holding a lock the other workers need."""
    tasks = expand_tasks([TINY], SCHEMES, CONFIG)
    counts = []

    def persist(worker_threads, attempt):
        counts.append((worker_threads, threading.active_count()))

    units = [tasks[index:index + 2] for index in range(0, len(tasks), 2)]
    outcome = run_supervised(
        units, _active_threads, persist, RetryPolicy(task_timeout_s=10.0)
    )
    assert len(outcome.records) == len(tasks) == 8
    assert counts == [(1, 1)] * len(tasks)  # (in the worker, in the parent)


def test_a_crash_right_after_a_result_loses_no_result():
    """The crash victim is the second cell of the first trajectory group,
    which its worker starts right after sending the group's first result;
    the crash must cost only that cell."""
    chaos = ChaosConfig(crashes=1, seed=3)
    tasks = expand_tasks([TINY], SCHEMES, CONFIG)
    victims = [fault.digest for fault in build_plan([t.digest for t in tasks], chaos).faults]
    assert victims == [tasks[1].digest]
    policy = RetryPolicy(task_timeout_s=10.0, max_retries=3, keep_going=True)
    lost = []
    for drill in range(100):
        result = run_sweep(families=[TINY], schemes=SCHEMES, config=CONFIG,
                           workers=2, retry=policy, chaos=chaos)
        accounting = (result.timeouts, result.respawns, result.degraded)
        if accounting != (0, 1, False) or len(result.records) != len(tasks):
            lost.append((drill, accounting))
    assert not lost, f"(drill, (timeouts, respawns, degraded)): {lost}"


# ----------------------------------------------------------------------
# SupervisedOutcome accounting: the counters the obs layer surfaces
# ----------------------------------------------------------------------
def test_timeout_only_chaos_accounts_timeouts_and_respawns(hang_drill):
    result = hang_drill
    assert not result.failures and not result.degraded
    # The hang costs exactly one timeout, which kills one worker and
    # requeues the cell: every counter the report surfaces agrees.
    assert result.timeouts == 1
    assert result.respawns >= 1
    assert result.retries >= 1
    # Every cell was executed and reports wall-clock + attempt stats;
    # the hung cell took (at least) two attempts.
    assert len(result.records) == result.total_runs
    assert set(result.task_stats) == set(result.records)
    attempts = sorted(int(s["attempts"]) for s in result.task_stats.values())
    assert attempts[-1] >= 2 and attempts[0] == 1
    assert all(s["wall_s"] >= 0.0 for s in result.task_stats.values())


def test_raise_only_chaos_accounts_retries_without_respawns(tmp_path):
    raises = 2
    result = run_sweep(
        families=[TINY], schemes=SCHEMES, config=CONFIG,
        store=ResultStore(tmp_path), workers=1,
        retry=RetryPolicy(max_retries=1),
        chaos=ChaosConfig(raises=raises, seed=2),
    )
    assert not result.failures and not result.degraded
    # Serial raises are retried in-process: no workers die, nothing
    # times out, and each injected raise costs exactly one retry.
    assert result.retries == raises
    assert result.respawns == 0
    assert result.timeouts == 0
    attempts = sorted(int(s["attempts"]) for s in result.task_stats.values())
    assert attempts.count(2) == raises
    assert attempts.count(1) == result.total_runs - raises


# ----------------------------------------------------------------------
# Grouped dispatch: one worker runs a trajectory group, faults stay per cell
# ----------------------------------------------------------------------
#: Every client online, so SoI and SoI+k-switch store different metrics
#: and a cell served its group partner's result cannot hide.
BUSY = ScenarioFamily(
    name="busy",
    description="test family with every client online",
    base=ScenarioSpec(
        label="busy", num_clients=24, num_gateways=8, duration_s=1800.0, seed=3,
        trace_overrides=(("peak_online_probability", 1.0),),
    ),
)
#: Two groups: no-sleep's two repetitions, and SoI's and SoI+k-switch's.
GROUPED = [no_sleep(), soi(), soi_kswitch()]

#: (planned faults by (scheme, run index), pool respawn budget, expected
#: (retried cell, attempt, kind) events, respawns, degraded).
GROUPED_DRILLS = {
    "crash-and-raise-in-one-group": (
        {("SoI", 0): FaultKind.CRASH, ("SoI+k-switch", 0): FaultKind.RAISE}, 3,
        [(("SoI", 0), 0, "crash"), (("SoI+k-switch", 0), 0, "error")], 1, False,
    ),
    "torn-write-on-second-cell": (
        {("SoI", 1): FaultKind.TORN_WRITE}, 3,
        [(("SoI", 1), 0, "persist")], 0, False,
    ),
    "degraded": (
        {("SoI", 0): FaultKind.CRASH, ("SoI+k-switch", 0): FaultKind.RAISE}, 0,
        [(("SoI", 0), 0, "crash"), (("SoI+k-switch", 0), 0, "error")], 1, True,
    ),
}


class _RetryLog:
    """Progress sink that records every failed attempt that is retried."""

    def __init__(self):
        self.events = []

    def task_retry(self, task, attempt, kind):
        self.events.append(((task.scheme.name, task.run_index), attempt, kind))


@pytest.mark.parametrize("drill", sorted(GROUPED_DRILLS))
def test_grouped_dispatch_keeps_faults_and_attempts_per_cell(tmp_path, monkeypatch, drill):
    planned, respawn_budget, expected_events, respawns, degraded = GROUPED_DRILLS[drill]
    tasks = expand_tasks([BUSY], GROUPED, CONFIG)
    digest = {(task.scheme.name, task.run_index): task.digest for task in tasks}
    plan = FaultPlan(faults=tuple(
        FaultSpec(digest=digest[cell], kind=kind) for cell, kind in planned.items()
    ))
    monkeypatch.setattr(engine, "build_plan", lambda digests, chaos: plan)
    clean_dir = tmp_path / "clean"
    chaos_dir = tmp_path / "chaos"
    clean = run_sweep(families=[BUSY], schemes=GROUPED, config=CONFIG,
                      store=ResultStore(clean_dir), workers=1)
    metrics = {cell: clean.records[d].metrics for cell, d in digest.items()}
    assert metrics[("SoI", 0)] != metrics[("SoI+k-switch", 0)]
    log = _RetryLog()
    battered = run_sweep(
        families=[BUSY], schemes=GROUPED, config=CONFIG,
        store=ResultStore(chaos_dir), workers=2,
        retry=RetryPolicy(max_retries=3, max_pool_respawns=respawn_budget),
        chaos=ChaosConfig(crashes=1), progress=log,
    )
    # Each planned fault fired exactly once, on its own cell's first attempt.
    assert sorted(log.events) == sorted(expected_events)
    assert (battered.retries, battered.respawns) == (len(expected_events), respawns)
    assert (battered.timeouts, battered.degraded) == (0, degraded)
    # A cell's attempts count only its own: its group partners' faults,
    # and a dead worker's requeued remainder, cost it none.
    retried = {cell for cell, _attempt, _kind in expected_events}
    assert {
        cell: int(battered.task_stats[d]["attempts"]) for cell, d in digest.items()
    } == {cell: 2 if cell in retried else 1 for cell in digest}
    assert store_bytes(clean_dir) == store_bytes(chaos_dir)
    assert clean.aggregates() == battered.aggregates()


def test_degrades_to_serial_when_the_pool_keeps_dying(tmp_path):
    # Four crashes against a respawn budget of one: the supervisor must
    # give up on process isolation and finish the grid in-parent (where
    # crash faults demote to raises and the retry budget rescues them).
    result = run_sweep(
        families=[TINY], schemes=SCHEMES, config=CONFIG,
        store=ResultStore(tmp_path), workers=2,
        retry=RetryPolicy(max_retries=3, max_pool_respawns=1, keep_going=True),
        chaos=ChaosConfig(crashes=4, seed=13),
    )
    assert result.degraded
    assert not result.failures
    assert len(result.records) == result.total_runs
    # The degraded cells ran in this process; it must not keep their scenario.
    assert engine._SCENARIO_CACHE == {}

"""Supervised execution of sweep tasks: timeouts, retries, respawn.

The bare ``Pool.imap_unordered`` the engine used before this module has
three fatal modes: a worker killed by the OS deadlocks the pool, a hung
task blocks it forever, and any raised exception aborts the whole sweep
with only a traceback.  The supervisor replaces it with an explicitly
managed pool whose parent-side loop enforces per-task wall-clock
deadlines, detects dead workers, respawns them, re-enqueues whatever
they were running, and retries failed attempts with deterministic
exponential backoff.

The pool dispatches *units*: cells that one worker runs in order, such
as the cells of a trajectory group, which share one kernel pass in the
worker's memory.  Each worker has one private duplex pipe: a unit of
``(task, attempt)`` pairs goes down, and one ``("ok", output)``
or ``("error", reason)`` comes back per cell as it finishes.  ``send`` is
synchronous, so no process runs a feeder thread and no two workers share
a lock: a worker killed at any moment has delivered each result whole or
not at all, and costs only the cell it was running.  Attempts, retries,
deadlines and accounting stay per cell: a cell's deadline restarts when
the cell before it reports, a failed cell is retried on its own, and the
unfinished remainder of a dead worker's unit is requeued as one unit,
each cell keeping its own attempt count.  The parent sleeps in
``multiprocessing.connection.wait`` on every pipe and process sentinel
until a worker reports or dies, a deadline passes, or a backoff ends.

Determinism contract: a task is retried with the *same* :class:`SweepTask`
(and therefore the same crc32-deterministic seed), and results are keyed
by content digest — so however battered the execution, the records that
reach the store are bit-identical to a clean serial run's.

After ``max_pool_respawns`` worker replacements the supervisor stops
trusting process isolation and degrades to in-parent serial execution of
everything still outstanding.  In serial (degraded or ``workers=1``)
mode, injected CRASH/HANG faults are demoted to RAISE — killing or
hanging the parent would turn a chaos drill into a real outage — and
wall-clock timeouts are unenforceable, which is documented behaviour.
"""

from __future__ import annotations

import heapq
import itertools
import multiprocessing
import time
from collections import deque
from dataclasses import dataclass, field
from multiprocessing.connection import wait
from typing import Callable, Deque, Dict, List, Optional, Sequence, Tuple

from repro.obs.progress import notify
from repro.resilience.faults import FaultPlan, InjectedFault, apply_worker_fault

#: Grace given a killed worker process to be reaped before moving on.
_REAP_TIMEOUT_S = 5.0


@dataclass(frozen=True)
class RetryPolicy:
    """Execution-resilience knobs of a sweep."""

    task_timeout_s: Optional[float] = None
    max_retries: int = 2
    backoff_base_s: float = 0.0
    keep_going: bool = False
    max_pool_respawns: int = 3

    def __post_init__(self) -> None:
        if self.task_timeout_s is not None and self.task_timeout_s <= 0:
            raise ValueError("task_timeout_s must be positive")
        if self.max_retries < 0:
            raise ValueError("max_retries must be non-negative")
        if self.backoff_base_s < 0:
            raise ValueError("backoff_base_s must be non-negative")
        if self.max_pool_respawns < 0:
            raise ValueError("max_pool_respawns must be non-negative")

    def backoff_s(self, attempt: int) -> float:
        """Deterministic exponential backoff before retry ``attempt + 1``."""
        return self.backoff_base_s * (2.0 ** attempt)


@dataclass(frozen=True)
class TaskFailure:
    """One grid cell that exhausted its retry budget."""

    digest: str
    family: str
    label: str
    scheme: str
    run_index: int
    attempts: int
    kind: str  # "crash" | "timeout" | "error" | "persist"
    reason: str

    @property
    def cell(self) -> str:
        """Human-readable grid-cell name for CLI output."""
        return f"{self.family}/{self.label}/{self.scheme}#{self.run_index}"


class SweepExecutionError(RuntimeError):
    """A task exhausted its retries and the sweep was not ``keep_going``."""

    def __init__(self, failures: Sequence[TaskFailure]):
        self.failures = list(failures)
        cells = ", ".join(failure.cell for failure in self.failures)
        super().__init__(
            f"{len(self.failures)} grid cell(s) failed after retries: {cells}"
        )


class SweepInterrupted(RuntimeError):
    """Ctrl-C mid-sweep; carries how much work was already persisted."""

    def __init__(self, completed: int, outstanding: int):
        self.completed = completed
        self.outstanding = outstanding
        super().__init__(
            f"sweep interrupted with {completed} run(s) completed and "
            f"{outstanding} outstanding"
        )


@dataclass
class SupervisedOutcome:
    """What supervised execution produced: records, ledger, accounting."""

    records: Dict[str, object] = field(default_factory=dict)
    failures: List[TaskFailure] = field(default_factory=list)
    retries: int = 0
    respawns: int = 0
    timeouts: int = 0
    degraded: bool = False
    #: Per-digest execution accounting: ``{"attempts": n, "wall_s": s}``
    #: where ``wall_s`` accumulates parent-observed wall-clock time across
    #: every attempt (including failed ones) of that grid cell.
    task_stats: Dict[str, Dict[str, float]] = field(default_factory=dict)

    def note_attempt(self, digest: str, attempt: int, elapsed_s: float) -> None:
        """Fold one attempt's wall time into the per-task accounting."""
        stats = self.task_stats.get(digest)
        if stats is None:
            stats = {"attempts": 0, "wall_s": 0.0}
            self.task_stats[digest] = stats
        stats["attempts"] = max(stats["attempts"], attempt + 1)
        stats["wall_s"] += elapsed_s


def _cell(task) -> str:
    """Human-readable grid-cell name of a task (for trace events)."""
    return f"{task.family}/{task.spec.label}/{task.scheme.name}#{task.run_index}"


def _failure(task, attempt: int, kind: str, reason: str) -> TaskFailure:
    return TaskFailure(
        digest=task.digest,
        family=task.family,
        label=task.spec.label,
        scheme=task.scheme.name,
        run_index=task.run_index,
        attempts=attempt + 1,
        kind=kind,
        reason=reason,
    )


def _retry_or_fail(
    outcome: SupervisedOutcome,
    policy: RetryPolicy,
    task,
    attempt: int,
    kind: str,
    reason: str,
    tracer,
    progress,
) -> Optional[float]:
    """Ledger a failed attempt: its retry's backoff, or ``None`` if it failed.

    A task out of retries joins ``outcome.failures``; unless the policy
    keeps going, that raises :class:`SweepExecutionError`.
    """
    if attempt < policy.max_retries:
        outcome.retries += 1
        delay = policy.backoff_s(attempt)
        if tracer is not None:
            tracer.event(
                "supervisor.retry", time.perf_counter(),
                clock="wall", cat="supervisor",
                cell=_cell(task), attempt=attempt, kind=kind, backoff_s=delay,
            )
        notify(progress, "task_retry", task, attempt, kind)
        return delay
    failure = _failure(task, attempt, kind, reason)
    outcome.failures.append(failure)
    notify(progress, "task_failed", failure)
    if not policy.keep_going:
        raise SweepExecutionError(outcome.failures)
    return None


def _worker_main(conn, execute, plan) -> None:
    """Worker loop: receive a unit on the pipe, send back each cell's outcome.

    Top-level so it pickles under any start method.  ``None`` asks the
    worker to exit.  Consults the fault plan *before* executing each
    cell, so an injected crash models dying mid-task.
    """
    while True:
        unit = conn.recv()
        if unit is None:
            return
        for task, attempt in unit:
            try:
                if plan is not None:
                    kind = plan.worker_fault(task.digest, attempt)
                    if kind is not None:
                        apply_worker_fault(kind, task.digest)
                output = execute(task)
            except BaseException as exc:  # noqa: BLE001 — report, don't die
                conn.send(("error", f"{type(exc).__name__}: {exc}"))
            else:
                conn.send(("ok", output))


class _WorkerHandle:
    """One worker process, the parent's end of its pipe, and its unit.

    ``cells`` holds the unit's ``(task, attempt)`` pairs that have not
    reported yet; the first is running, and its clock started at
    ``started_pc``.
    """

    def __init__(self, ctx, worker_id: int, execute, plan) -> None:
        self.id = worker_id
        self.conn, child_conn = ctx.Pipe()
        self.process = ctx.Process(
            target=_worker_main, args=(child_conn, execute, plan), daemon=True,
        )
        self.process.start()
        # The worker now holds the only other end: its exit is our EOF.
        child_conn.close()
        self.cells: Deque[Tuple[object, int]] = deque()
        self.deadline: Optional[float] = None
        self.started_pc = 0.0

    @property
    def busy(self) -> bool:
        return bool(self.cells)

    def assign(self, unit, policy: RetryPolicy, now: float) -> None:
        self.cells = deque(unit)
        self.start_clock(policy, now)
        try:
            self.conn.send(list(unit))
        except OSError:
            pass  # the worker is dead; its EOF wakes the loop, which requeues

    def start_clock(self, policy: RetryPolicy, now: float) -> None:
        """The first unreported cell starts now: time it and arm its deadline."""
        self.deadline = (
            now + policy.task_timeout_s
            if self.cells and policy.task_timeout_s is not None else None
        )
        self.started_pc = time.perf_counter()

    def receive(self):
        """The worker's ``(status, payload)``, or ``None`` once it has died."""
        try:
            return self.conn.recv() if self.conn.poll() else None
        except (EOFError, OSError):  # closed, or torn mid-message
            return None

    def stop(self, kill: bool) -> None:
        """Shut the worker down; ``kill=True`` skips the polite goodbye."""
        try:
            if not kill:
                try:
                    self.conn.send(None)
                except OSError:
                    pass  # already dead
                self.process.join(timeout=_REAP_TIMEOUT_S)
            self.process.kill()  # a no-op once the worker has been reaped
            self.process.join(timeout=_REAP_TIMEOUT_S)
        finally:
            self.conn.close()


def run_serial_supervised(
    tasks: Sequence,
    execute: Callable,
    persist: Callable[[object, int], None],
    policy: RetryPolicy,
    plan: Optional[FaultPlan] = None,
    start_attempts: Optional[Dict[str, int]] = None,
    tracer=None,
    progress=None,
) -> SupervisedOutcome:
    """In-process supervised execution (``workers=1`` and degraded mode).

    Retries and the failure ledger work exactly as in the pooled path;
    wall-clock timeouts are unenforceable in-process, and injected
    CRASH/HANG faults are demoted to RAISE so the chaos plan exercises
    the retry machinery without taking the parent down.  ``start_attempts``
    lets the degraded path continue each task's attempt count from where
    the pooled phase left it, keeping fault-at-attempt semantics intact.
    ``tracer`` optionally records wall-clock task spans and retry events;
    ``progress`` is an optional :class:`~repro.obs.progress.ProgressSink`
    fed through the exception-swallowing ``notify`` wrapper.
    """
    outcome = SupervisedOutcome()
    for task in tasks:
        attempt = (start_attempts or {}).get(task.digest, 0)
        while True:
            notify(progress, "task_started", task, attempt)
            started_pc = time.perf_counter()
            try:
                if plan is not None:
                    kind = plan.worker_fault(task.digest, attempt)
                    if kind is not None:
                        raise InjectedFault(
                            f"injected {kind.value} for {task.digest[:12]} "
                            "(demoted to raise in serial mode)"
                        )
                record = execute(task)
                persist(record, attempt)
            except KeyboardInterrupt:
                resolved = len(outcome.records) + len(outcome.failures)
                raise SweepInterrupted(
                    completed=len(outcome.records),
                    outstanding=len(tasks) - resolved,
                ) from None
            except Exception as exc:  # noqa: BLE001 — ledger, maybe retry
                outcome.note_attempt(
                    task.digest, attempt, time.perf_counter() - started_pc
                )
                delay = _retry_or_fail(
                    outcome, policy, task, attempt, "error",
                    f"{type(exc).__name__}: {exc}", tracer, progress,
                )
                if delay is None:
                    break
                time.sleep(delay)
                attempt += 1
            else:
                ended_pc = time.perf_counter()
                outcome.note_attempt(task.digest, attempt, ended_pc - started_pc)
                if tracer is not None:
                    tracer.span(
                        "task.run", started_pc, ended_pc,
                        clock="wall", cat="supervisor",
                        cell=_cell(task), attempt=attempt,
                    )
                notify(progress, "task_done", task, attempt, ended_pc - started_pc)
                outcome.records[task.digest] = record
                break
    return outcome


def run_supervised(
    units: Sequence[Sequence],
    execute: Callable,
    persist: Callable[[object, int], None],
    policy: RetryPolicy,
    plan: Optional[FaultPlan] = None,
    workers: int = 2,
    tracer=None,
    progress=None,
) -> SupervisedOutcome:
    """Execute units of tasks on a supervised worker pool.

    Each unit goes to one worker whole, which runs its tasks in order and
    reports each one as it finishes.  ``execute`` runs in the workers
    (top-level, picklable) once per task; ``persist`` runs in the parent
    as each result arrives and may raise to fail the attempt (this is
    where torn-write injection lives).  Units keep their submission order
    on first assignment, so a worker's per-process scenario cache stays
    warm across a spec's contiguous cells (and its trace across
    consecutive specs that share one).  The pool forks at most one worker
    per unit.
    ``tracer`` records parent-side wall-clock spans (one per task attempt,
    one Perfetto track per worker) and retry/respawn events; ``progress``
    is an optional :class:`~repro.obs.progress.ProgressSink` fed the same
    events through the exception-swallowing ``notify``.
    """
    if workers < 2:
        raise ValueError("run_supervised needs >= 2 workers; use run_serial_supervised")
    outcome = SupervisedOutcome()
    tasks = [task for unit in units for task in unit]
    # (ready_at, tiebreak, [(task, attempt), ...]): every unit's first
    # attempt, in submission order, then each requeued cell or remainder
    # once its backoff has passed.
    pending: List[Tuple[float, int, list]] = [
        (0.0, seq, [(task, 0) for task in unit]) for seq, unit in enumerate(units)
    ]
    tiebreak = itertools.count(len(pending))

    try:
        ctx = multiprocessing.get_context("fork")
    except ValueError:  # platform without fork: use the default context
        ctx = multiprocessing.get_context()
    pool: Dict[int, _WorkerHandle] = {}
    worker_ids = itertools.count()

    def spawn() -> None:
        handle = _WorkerHandle(ctx, next(worker_ids), execute, plan)
        pool[handle.id] = handle

    def requeue(task, attempt: int, kind: str, reason: str, rest=()) -> None:
        """Failed attempt: schedule a retry or record the failure.

        ``rest``, the unstarted cells of a dead worker's unit, is requeued
        with the retry as one unit.
        """
        delay = _retry_or_fail(
            outcome, policy, task, attempt, kind, reason, tracer, progress
        )
        cells = list(rest)
        if delay is not None:
            cells.insert(0, (task, attempt + 1))
        if cells:
            heapq.heappush(
                pending, (time.monotonic() + (delay or 0.0), next(tiebreak), cells)
            )

    def resolve(handle: _WorkerHandle, status: str, payload) -> None:
        """Persist a cell's result, or requeue the attempt it reports failed."""
        task, attempt = handle.cells.popleft()
        resolved_pc = time.perf_counter()
        elapsed = resolved_pc - handle.started_pc
        outcome.note_attempt(task.digest, attempt, elapsed)
        if tracer is not None:
            tracer.span(
                "task.run", handle.started_pc, resolved_pc,
                clock="wall", cat="supervisor", tid=handle.id,
                cell=_cell(task), attempt=attempt, status=status,
            )
        # The worker has moved on to the unit's next cell.
        handle.start_clock(policy, time.monotonic())
        if status != "ok":
            requeue(task, attempt, "error", str(payload))
        else:
            try:
                persist(payload, attempt)
            except Exception as exc:  # noqa: BLE001 — torn write / store error
                requeue(task, attempt, "persist", f"{type(exc).__name__}: {exc}")
            else:
                notify(progress, "task_done", task, attempt, elapsed)
                outcome.records[task.digest] = payload
        if handle.busy:
            notify(progress, "task_started", *handle.cells[0])

    def replace(handle: _WorkerHandle, timed_out: bool) -> None:
        """Kill a hung or dead worker, start its successor, requeue its cells."""
        cells = list(handle.cells)
        task, attempt = cells[0] if cells else (None, 0)
        elapsed = time.perf_counter() - handle.started_pc
        del pool[handle.id]
        handle.stop(kill=True)
        outcome.respawns += 1
        if timed_out:
            outcome.timeouts += 1
            kind = "timeout"
            reason = f"exceeded task timeout of {policy.task_timeout_s:g}s"
            if tracer is not None:
                tracer.event(
                    "supervisor.timeout", time.perf_counter(),
                    clock="wall", cat="supervisor", tid=handle.id,
                    cell=_cell(task), attempt=attempt,
                )
            notify(progress, "task_timeout", task, attempt)
        else:
            code = handle.process.exitcode
            kind = "crash"
            reason = f"worker died (exit code {code}) while running the task"
            if tracer is not None:
                tracer.event(
                    "supervisor.respawn", time.perf_counter(),
                    clock="wall", cat="supervisor", tid=handle.id,
                    exit_code=code,
                    cell=_cell(task) if task is not None else None,
                )
            notify(progress, "worker_respawn", handle.id, code)
        spawn()
        if task is not None:
            outcome.note_attempt(task.digest, attempt, elapsed)
            requeue(task, attempt, kind, reason, cells[1:])

    def shutdown(kill: bool) -> None:
        for handle in list(pool.values()):
            handle.stop(kill=kill)
        pool.clear()

    try:
        for _ in range(min(workers, max(1, len(units)))):
            spawn()
        while pending or any(handle.busy for handle in pool.values()):
            now = time.monotonic()
            for handle in list(pool.values()):
                if not handle.busy and pending and pending[0][0] <= now:
                    _ready_at, _seq, unit = heapq.heappop(pending)
                    handle.assign(unit, policy, now)
                    notify(progress, "task_started", *unit[0])

            # Sleep until a worker reports or dies, a deadline passes or
            # a backoff ends.
            wakeups = [h.deadline for h in pool.values() if h.deadline is not None]
            if pending and pending[0][0] > now:
                wakeups.append(pending[0][0])
            timeout = max(0.0, min(wakeups) - time.monotonic()) if wakeups else None
            ready = wait(
                [h.conn for h in pool.values()]
                + [h.process.sentinel for h in pool.values()],
                timeout,
            )
            for handle in list(pool.values()):
                if handle.conn in ready or handle.process.sentinel in ready:
                    # A worker that has exited may still have sent its result.
                    message = handle.receive()
                    if message is None:
                        replace(handle, timed_out=False)
                    else:
                        resolve(handle, *message)

            now = time.monotonic()
            for handle in list(pool.values()):
                if handle.deadline is not None and now > handle.deadline:
                    replace(handle, timed_out=True)

            if outcome.respawns > policy.max_pool_respawns:
                # The pool keeps dying: stop trusting process isolation.
                outcome.degraded = True
                break

        if outcome.degraded:
            if tracer is not None:
                tracer.event(
                    "supervisor.degraded", time.perf_counter(),
                    clock="wall", cat="supervisor", respawns=outcome.respawns,
                )
            notify(progress, "degraded", outcome.respawns)
            # Collect everything still outstanding — queued, backing off,
            # or in flight on a worker — in submission order, preserving
            # per-task attempt counts.
            leftovers: Dict[str, int] = {}
            for _ready_at, _seq, unit in pending:
                for task, attempt in unit:
                    leftovers[task.digest] = attempt
            for handle in pool.values():
                for task, attempt in handle.cells:
                    leftovers[task.digest] = attempt
            shutdown(kill=True)
            order = [task for task in tasks if task.digest in leftovers]
            try:
                serial = run_serial_supervised(
                    order,
                    execute,
                    persist,
                    policy,
                    plan=plan,
                    start_attempts=leftovers,
                    tracer=tracer,
                    progress=progress,
                )
            except SweepInterrupted as exc:
                # Fold the pooled phase's completions into the count.
                raise SweepInterrupted(
                    completed=len(outcome.records) + exc.completed,
                    outstanding=exc.outstanding,
                ) from None
            outcome.records.update(serial.records)
            outcome.failures.extend(serial.failures)
            outcome.retries += serial.retries
            outcome.timeouts += serial.timeouts
            for digest, stats in serial.task_stats.items():
                outcome.note_attempt(
                    digest, int(stats["attempts"]) - 1, stats["wall_s"]
                )
    except KeyboardInterrupt:
        shutdown(kill=True)
        resolved = len(outcome.records) + len(outcome.failures)
        raise SweepInterrupted(
            completed=len(outcome.records),
            outstanding=len(tasks) - resolved,
        ) from None
    except SweepExecutionError:
        shutdown(kill=True)
        raise
    finally:
        shutdown(kill=False)
    return outcome

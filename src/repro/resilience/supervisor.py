"""Supervised execution of sweep tasks: timeouts, retries, respawn.

The bare ``Pool.imap_unordered`` the engine used before this module has
three fatal modes: a worker killed by the OS deadlocks the pool, a hung
task blocks it forever, and any raised exception aborts the whole sweep
with only a traceback.  The supervisor replaces it with an explicitly
managed pool — one inbox queue per worker, one shared outbox — whose
parent-side loop enforces per-task wall-clock deadlines, detects dead
workers, respawns them, re-enqueues whatever they were running, and
retries failed attempts with deterministic exponential backoff.

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
import multiprocessing
import queue as queue_module
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Deque, Dict, List, Optional, Sequence, Tuple

from repro.obs.progress import notify
from repro.resilience.faults import FaultPlan, InjectedFault, apply_worker_fault

#: How long the parent blocks on the outbox per loop iteration; bounds
#: how late a timeout or dead-worker check can fire.
_POLL_INTERVAL_S = 0.05

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


def _worker_main(worker_id, inbox, outbox, execute, plan) -> None:
    """Worker loop: take (task, attempt) from the inbox, report to the outbox.

    Top-level so it pickles under any start method.  Consults the fault
    plan *before* executing, so an injected crash models dying mid-task.
    """
    while True:
        message = inbox.get()
        if message is None:
            return
        task, attempt = message
        try:
            if plan is not None:
                kind = plan.worker_fault(task.digest, attempt)
                if kind is not None:
                    apply_worker_fault(kind, task.digest)
            record = execute(task)
        except BaseException as exc:  # noqa: BLE001 — report, don't die
            outbox.put(
                (worker_id, task.digest, attempt, "error",
                 f"{type(exc).__name__}: {exc}")
            )
        else:
            outbox.put((worker_id, task.digest, attempt, "ok", record))


class _WorkerHandle:
    """One managed worker process plus its parent-side bookkeeping."""

    def __init__(self, ctx, worker_id: int, outbox, execute, plan) -> None:
        self.id = worker_id
        self.inbox = ctx.Queue()
        self.process = ctx.Process(
            target=_worker_main,
            args=(worker_id, self.inbox, outbox, execute, plan),
            daemon=True,
        )
        self.process.start()
        self.task = None
        self.attempt = 0
        self.deadline: Optional[float] = None
        self.assigned_pc = 0.0

    @property
    def busy(self) -> bool:
        return self.task is not None

    def assign(self, task, attempt: int, policy: RetryPolicy, now: float) -> None:
        self.task = task
        self.attempt = attempt
        self.deadline = (
            now + policy.task_timeout_s if policy.task_timeout_s is not None else None
        )
        self.assigned_pc = time.perf_counter()
        self.inbox.put((task, attempt))

    def clear(self) -> None:
        self.task = None
        self.deadline = None

    def stop(self, kill: bool) -> None:
        """Shut the worker down; ``kill=True`` skips the polite goodbye."""
        try:
            if kill:
                self.process.kill()
            elif self.process.is_alive():
                self.inbox.put(None)
            self.process.join(timeout=_REAP_TIMEOUT_S)
            if self.process.is_alive():
                self.process.kill()
                self.process.join(timeout=_REAP_TIMEOUT_S)
        finally:
            # Don't let the inbox's feeder thread block interpreter exit.
            self.inbox.cancel_join_thread()
            self.inbox.close()


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
                if attempt < policy.max_retries:
                    delay = policy.backoff_s(attempt)
                    if tracer is not None:
                        tracer.event(
                            "supervisor.retry", time.perf_counter(),
                            clock="wall", cat="supervisor",
                            cell=_cell(task), attempt=attempt, backoff_s=delay,
                        )
                    notify(progress, "task_retry", task, attempt, "error")
                    if delay > 0:
                        time.sleep(delay)
                    attempt += 1
                    outcome.retries += 1
                    continue
                failure = _failure(
                    task, attempt, "error", f"{type(exc).__name__}: {exc}"
                )
                outcome.failures.append(failure)
                notify(progress, "task_failed", failure)
                if not policy.keep_going:
                    raise SweepExecutionError(outcome.failures) from exc
                break
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
    tasks: Sequence,
    execute: Callable,
    persist: Callable[[object, int], None],
    policy: RetryPolicy,
    plan: Optional[FaultPlan] = None,
    workers: int = 2,
    mp_context: Optional[str] = None,
    tracer=None,
    progress=None,
) -> SupervisedOutcome:
    """Execute tasks on a supervised worker pool.

    ``execute`` runs in the workers (top-level, picklable); ``persist``
    runs in the parent as each result arrives and may raise to fail the
    attempt (this is where torn-write injection lives).  Tasks keep their
    submission order on first assignment, so a worker's per-process
    scenario cache stays warm across a spec's contiguous cells (and its
    trace across consecutive specs that share one).
    ``tracer`` records parent-side wall-clock spans (assignment to
    resolution, one Perfetto track per worker) and retry/respawn events;
    ``progress`` is an optional :class:`~repro.obs.progress.ProgressSink`
    fed the same events through the exception-swallowing ``notify``.
    """
    if workers < 2:
        raise ValueError("run_supervised needs >= 2 workers; use run_serial_supervised")
    outcome = SupervisedOutcome()
    ready: Deque[Tuple[object, int]] = deque((task, 0) for task in tasks)
    # (ready_at, tiebreak, task, attempt): retries waiting out their backoff.
    waiting: List[Tuple[float, int, object, int]] = []
    waiting_seq = 0
    total_done = 0
    total = len(tasks)

    try:
        ctx = multiprocessing.get_context(mp_context or "fork")
    except ValueError:  # platform without fork: use the default context
        ctx = multiprocessing.get_context()
    outbox = ctx.Queue()
    pool: Dict[int, _WorkerHandle] = {}
    next_worker_id = 0

    def spawn() -> _WorkerHandle:
        nonlocal next_worker_id
        handle = _WorkerHandle(ctx, next_worker_id, outbox, execute, plan)
        pool[handle.id] = handle
        next_worker_id += 1
        return handle

    def requeue(task, attempt: int, kind: str, reason: str) -> None:
        """Failed attempt: schedule a retry or record the failure."""
        nonlocal waiting_seq, total_done
        if attempt < policy.max_retries:
            outcome.retries += 1
            delay = policy.backoff_s(attempt)
            if tracer is not None:
                tracer.event(
                    "supervisor.retry", time.perf_counter(),
                    clock="wall", cat="supervisor",
                    cell=_cell(task), attempt=attempt, kind=kind,
                    backoff_s=delay,
                )
            notify(progress, "task_retry", task, attempt, kind)
            if delay > 0:
                waiting_seq += 1
                heapq.heappush(
                    waiting,
                    (time.monotonic() + delay, waiting_seq, task, attempt + 1),
                )
            else:
                ready.append((task, attempt + 1))
            return
        failure = _failure(task, attempt, kind, reason)
        outcome.failures.append(failure)
        notify(progress, "task_failed", failure)
        total_done += 1
        if not policy.keep_going:
            raise SweepExecutionError(outcome.failures)

    def handle_message(message) -> None:
        """Process one outbox message; stale senders are dropped."""
        nonlocal total_done
        worker_id, digest, attempt, status, payload = message
        handle = pool.get(worker_id)
        if (
            handle is None
            or handle.task is None
            or handle.task.digest != digest
            or handle.attempt != attempt
        ):
            return  # late message from a worker we already killed/reassigned
        task = handle.task
        resolved_pc = time.perf_counter()
        outcome.note_attempt(digest, attempt, resolved_pc - handle.assigned_pc)
        if tracer is not None:
            tracer.span(
                "task.run", handle.assigned_pc, resolved_pc,
                clock="wall", cat="supervisor", tid=worker_id,
                cell=_cell(task), attempt=attempt, status=status,
            )
        handle.clear()
        if status == "ok":
            try:
                persist(payload, attempt)
            except Exception as exc:  # noqa: BLE001 — torn write / store error
                requeue(task, attempt, "persist", f"{type(exc).__name__}: {exc}")
            else:
                notify(
                    progress, "task_done", task, attempt,
                    resolved_pc - handle.assigned_pc,
                )
                outcome.records[task.digest] = payload
                total_done += 1
        else:
            requeue(task, attempt, "error", str(payload))

    def drain(block: bool) -> None:
        """Handle queued results; with ``block``, wait one poll interval."""
        timeout = _POLL_INTERVAL_S if block else None
        while True:
            try:
                if block:
                    message = outbox.get(timeout=timeout)
                    block = False  # only the first get blocks
                else:
                    message = outbox.get_nowait()
            except queue_module.Empty:
                return
            handle_message(message)

    def shutdown(kill: bool) -> None:
        for handle in list(pool.values()):
            handle.stop(kill=kill)
        pool.clear()

    try:
        for _ in range(min(workers, max(1, len(tasks)))):
            spawn()
        while total_done < total:
            now = time.monotonic()
            while waiting and waiting[0][0] <= now:
                _ready_at, _seq, task, attempt = heapq.heappop(waiting)
                ready.append((task, attempt))
            for handle in pool.values():
                if not handle.busy and ready:
                    task, attempt = ready.popleft()
                    handle.assign(task, attempt, policy, now)
                    notify(progress, "task_started", task, attempt)
            drain(block=True)

            # Deadline pass: drain() above already consumed any result that
            # raced the deadline, so a busy worker past its deadline is hung.
            now = time.monotonic()
            for handle in list(pool.values()):
                if handle.busy and handle.deadline is not None and now > handle.deadline:
                    task, attempt = handle.task, handle.attempt
                    outcome.note_attempt(
                        task.digest, attempt,
                        time.perf_counter() - handle.assigned_pc,
                    )
                    del pool[handle.id]
                    handle.stop(kill=True)
                    outcome.respawns += 1
                    outcome.timeouts += 1
                    if tracer is not None:
                        tracer.event(
                            "supervisor.timeout", time.perf_counter(),
                            clock="wall", cat="supervisor", tid=handle.id,
                            cell=_cell(task), attempt=attempt,
                        )
                    notify(progress, "task_timeout", task, attempt)
                    spawn()
                    requeue(
                        task, attempt, "timeout",
                        f"exceeded task timeout of {policy.task_timeout_s:g}s",
                    )

            # Death pass: a worker can die with its result already queued,
            # so drain once more before declaring its task lost.
            dead = [h for h in pool.values() if not h.process.is_alive()]
            if dead:
                drain(block=False)
                for handle in dead:
                    if handle.id not in pool:
                        continue
                    del pool[handle.id]
                    task, attempt = handle.task, handle.attempt
                    code = handle.process.exitcode
                    handle.stop(kill=True)
                    outcome.respawns += 1
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
                        outcome.note_attempt(
                            task.digest, attempt,
                            time.perf_counter() - handle.assigned_pc,
                        )
                        requeue(
                            task, attempt, "crash",
                            f"worker died (exit code {code}) while running the task",
                        )

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
            # or in flight on a worker — in deterministic digest order,
            # preserving per-task attempt counts.
            leftovers: Dict[str, Tuple[object, int]] = {}
            for task, attempt in ready:
                leftovers[task.digest] = (task, attempt)
            for _ready_at, _seq, task, attempt in waiting:
                leftovers[task.digest] = (task, attempt)
            for handle in pool.values():
                if handle.busy:
                    leftovers[handle.task.digest] = (handle.task, handle.attempt)
            shutdown(kill=True)
            order = [task for task in tasks if task.digest in leftovers]
            try:
                serial = run_serial_supervised(
                    order,
                    execute,
                    persist,
                    policy,
                    plan=plan,
                    start_attempts={d: a for d, (_t, a) in leftovers.items()},
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
            outstanding=total - resolved,
        ) from None
    except SweepExecutionError:
        shutdown(kill=True)
        raise
    finally:
        shutdown(kill=False)
    return outcome

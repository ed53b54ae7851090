"""Live sweep progress: the ProgressSink protocol and dashboards.

The supervisor already sees every execution event a dashboard needs —
task assignment, completion, retry, timeout, worker respawn, degrade —
and the engine sees the grid shape and cache hits.  A
:class:`ProgressSink` receives those events; :class:`SweepDashboard`
renders them as a live terminal view (``sweep --watch``): per-family
progress bars, throughput in simulated hours per wall-second, an ETA,
and a failure ledger.

On a TTY the dashboard repaints in place with ANSI cursor movement; on
anything else (CI, pipes) it degrades to one plain ``[watch]``-prefixed
line per event so logs stay greppable and the same code path is
exercisable headless.  ``obs top`` reuses the same rendering over a
store's on-disk ledgers for sweeps running in another process.

Guard rails match the tracer's: every sink callback is invoked through
a swallow-all wrapper at the call site, sinks only *read* task state,
and with no sink attached the hot path pays a single ``is None`` check.
"""

from __future__ import annotations

import sys
import time
from typing import Dict, List, Optional, TextIO

#: Non-TTY fallback marker; CI greps for this to assert the fallback ran.
WATCH_MARKER = "[watch]"


class ProgressSink:
    """No-op base class: override any subset of the event callbacks.

    Callers invoke these through :func:`notify`, which swallows sink
    exceptions — an observability bug must never perturb a sweep.
    """

    def sweep_started(self, tasks, cached_digests) -> None:
        """Grid expanded: all tasks plus the digests served from cache."""

    def task_started(self, task, attempt: int) -> None:
        """One attempt of a grid cell began executing."""

    def task_done(self, task, attempt: int, wall_s: float) -> None:
        """One grid cell completed and persisted."""

    def task_retry(self, task, attempt: int, kind: str) -> None:
        """An attempt failed; the task will be retried."""

    def task_timeout(self, task, attempt: int) -> None:
        """An attempt exceeded the task wall-clock deadline."""

    def worker_respawn(self, worker_id: int, exit_code) -> None:
        """A pool worker died (or was killed) and was replaced."""

    def degraded(self, respawns: int) -> None:
        """The pool kept dying; execution degraded to in-parent serial."""

    def task_failed(self, failure) -> None:
        """A grid cell exhausted its retry budget (``keep_going`` ledger)."""

    def sweep_finished(self) -> None:
        """The sweep resolved every grid cell (success or ledger)."""


def notify(sink: Optional[ProgressSink], method: str, *args) -> None:
    """Invoke one sink callback, swallowing any sink-side exception."""
    if sink is None:
        return
    try:
        getattr(sink, method)(*args)
    except Exception:  # noqa: BLE001 — observation must not perturb
        pass


class SweepDashboard(ProgressSink):
    """Terminal progress view for ``sweep --watch``.

    Writes to ``stream`` (stderr by default, keeping stdout clean for
    report tables and ``--json``).  TTY streams get an in-place block
    repainted at most every ``interval_s`` seconds; non-TTY streams get
    one ``[watch]`` line per event.
    """

    def __init__(
        self,
        stream: Optional[TextIO] = None,
        interval_s: float = 0.25,
        force_plain: Optional[bool] = None,
    ) -> None:
        self.stream = stream if stream is not None else sys.stderr
        self.interval_s = interval_s
        if force_plain is None:
            self.plain = not self.stream.isatty()
        else:
            self.plain = force_plain
        self._started_at: Optional[float] = None
        self._last_paint = 0.0
        self._painted_lines = 0
        self._family_total: Dict[str, int] = {}
        self._family_done: Dict[str, int] = {}
        self._durations: Dict[str, float] = {}
        self._total = 0
        self._cached = 0
        self._done = 0
        self._executed = 0
        self._running: Dict[str, float] = {}
        self._sim_hours_done = 0.0
        self._wall_s_done = 0.0
        self._retries = 0
        self._timeouts = 0
        self._respawns = 0
        self._degraded = False
        self._failures: List[object] = []

    # -- event callbacks --------------------------------------------------
    def sweep_started(self, tasks, cached_digests) -> None:
        self._started_at = time.monotonic()
        cached = set(cached_digests)
        for task in tasks:
            self._family_total[task.family] = (
                self._family_total.get(task.family, 0) + 1
            )
            self._durations[task.digest] = task.spec.duration_s
            if task.digest in cached:
                self._cached += 1
                self._done += 1
                self._family_done[task.family] = (
                    self._family_done.get(task.family, 0) + 1
                )
        self._total = len(tasks)
        if self.plain:
            self._line(
                f"sweep started: {self._total} cell(s), "
                f"{self._cached} cached, {self._total - self._cached} to run"
            )
        else:
            self._paint(force=True)

    def task_started(self, task, attempt: int) -> None:
        self._running[task.digest] = time.monotonic()
        if self.plain:
            if attempt > 0:
                self._line(f"run {self._cell(task)} attempt={attempt}")
        else:
            self._paint()

    def task_done(self, task, attempt: int, wall_s: float) -> None:
        self._running.pop(task.digest, None)
        self._done += 1
        self._executed += 1
        self._family_done[task.family] = self._family_done.get(task.family, 0) + 1
        self._sim_hours_done += task.spec.duration_s / 3600.0
        self._wall_s_done += wall_s
        if self.plain:
            self._line(
                f"done {self._cell(task)} wall={wall_s:.2f}s "
                f"({self._done}/{self._total})"
            )
        else:
            self._paint()

    def task_retry(self, task, attempt: int, kind: str) -> None:
        self._running.pop(task.digest, None)
        self._retries += 1
        if self.plain:
            self._line(f"retry {self._cell(task)} attempt={attempt} kind={kind}")
        else:
            self._paint()

    def task_timeout(self, task, attempt: int) -> None:
        self._timeouts += 1
        if self.plain:
            self._line(f"timeout {self._cell(task)} attempt={attempt}")
        else:
            self._paint()

    def worker_respawn(self, worker_id: int, exit_code) -> None:
        self._respawns += 1
        if self.plain:
            self._line(f"respawn worker={worker_id} exit_code={exit_code}")
        else:
            self._paint()

    def degraded(self, respawns: int) -> None:
        self._degraded = True
        if self.plain:
            self._line(f"degraded to serial after {respawns} respawn(s)")
        else:
            self._paint(force=True)

    def task_failed(self, failure) -> None:
        self._done += 1
        self._family_done[failure.family] = (
            self._family_done.get(failure.family, 0) + 1
        )
        self._failures.append(failure)
        if self.plain:
            self._line(f"FAILED {failure.cell} kind={failure.kind}")
        else:
            self._paint(force=True)

    def sweep_finished(self) -> None:
        if self.plain:
            self._line(
                f"sweep finished: {self._done}/{self._total} resolved, "
                f"{self._executed} executed, {self._cached} cached, "
                f"{len(self._failures)} failed"
            )
        else:
            self._paint(force=True)
            self.stream.write("\n")
            self.stream.flush()

    # -- rendering --------------------------------------------------------
    def _cell(self, task) -> str:
        return f"{task.family}/{task.spec.label}/{task.scheme.name}#{task.run_index}"

    def _line(self, text: str) -> None:
        self.stream.write(f"{WATCH_MARKER} {text}\n")
        self.stream.flush()

    def _elapsed(self) -> float:
        if self._started_at is None:
            return 0.0
        return time.monotonic() - self._started_at

    def render_lines(self) -> List[str]:
        """The current dashboard block (also used by tests, TTY-free)."""
        from repro.analysis.report import format_bar

        elapsed = self._elapsed()
        flags = []
        if self._retries:
            flags.append(f"{self._retries} retr")
        if self._timeouts:
            flags.append(f"{self._timeouts} t/o")
        if self._respawns:
            flags.append(f"{self._respawns} respawn")
        if self._degraded:
            flags.append("DEGRADED")
        lines = [
            f"sweep {self._done}/{self._total} "
            f"({self._cached} cached, {self._executed} executed"
            + (", " + ", ".join(flags) if flags else "")
            + f") · elapsed {elapsed:.0f}s"
        ]
        for family in self._family_total:
            done = self._family_done.get(family, 0)
            total = self._family_total[family]
            bar = format_bar(done / total if total else 1.0)
            lines.append(f"  {bar} {family} {done}/{total}")
        throughput = self._sim_hours_done / elapsed if elapsed > 0 else 0.0
        eta = self._eta_s()
        lines.append(
            f"  throughput {throughput:.1f} sim-h/wall-s · "
            + (f"eta {eta:.0f}s" if eta is not None else "eta --")
        )
        for failure in self._failures[-5:]:
            lines.append(f"  FAILED {failure.cell} ({failure.kind}: {failure.reason})")
        return lines

    def _eta_s(self) -> Optional[float]:
        remaining = self._total - self._done
        if remaining <= 0:
            return 0.0
        if self._executed == 0:
            return None
        return remaining * (self._wall_s_done / self._executed)

    def _paint(self, force: bool = False) -> None:
        now = time.monotonic()
        if not force and now - self._last_paint < self.interval_s:
            return
        self._last_paint = now
        lines = self.render_lines()
        out = []
        if self._painted_lines:
            out.append(f"\x1b[{self._painted_lines}F")  # to top of old block
        for line in lines:
            out.append(f"\x1b[2K{line}\n")
        # Shrinking block: wipe stale tail lines, then move back up.
        extra = self._painted_lines - len(lines)
        if extra > 0:
            out.append("\x1b[2K\n" * extra)
            out.append(f"\x1b[{extra}F")
        self.stream.write("".join(out))
        self.stream.flush()
        self._painted_lines = len(lines)


def render_store_top(store) -> str:
    """One ``obs top`` frame from a store's records and timings ledger.

    Only reads (every record file, through ``get``) — safe to point at a
    store another process is actively sweeping into.
    """
    from repro.analysis.report import format_table, render_key_values

    per_family: Dict[str, Dict[str, float]] = {}
    invalid = 0
    for digest in store.digests():
        record = store.get(digest)
        if record is None:
            invalid += 1
            continue
        bucket = per_family.setdefault(record.family or "-", {"runs": 0, "sim_hours": 0.0})
        bucket["runs"] += 1
        bucket["sim_hours"] += record.duration_s / 3600.0
    timings = store.read_timings()
    wall = [entry.get("run_s") for entry in timings]
    wall = [float(value) for value in wall if value is not None]
    rows = [
        [family, int(bucket["runs"]), bucket["sim_hours"]]
        for family, bucket in sorted(per_family.items())
    ]
    table = format_table(["family", "runs", "sim hours"], rows, precision=2)
    summary = render_key_values({
        "records": sum(int(b["runs"]) for b in per_family.values()),
        "invalid": invalid,
        "timed attempts": len(wall),
        "executed wall s": round(sum(wall), 2),
    }, title=f"store: {store.root}")
    return f"{summary}\n\n{table}"

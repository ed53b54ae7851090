"""Bounded structured tracing on two clocks, with Perfetto export.

A :class:`SimTracer` is a plain in-memory buffer of event dicts.  Events
live on one of two clocks:

- ``clock="sim"`` — timestamps are simulated seconds.  The kernel emits
  these at its *rare* event sites (churn, BH2 rounds, solver calls) and,
  post-run, converts the gateway transition log into per-gateway
  sleep/wake/boot spans.
- ``clock="wall"`` — timestamps are ``time.perf_counter()`` seconds.
  The sweep engine and supervisor emit these around trace builds,
  kernel runs, store puts and retry/respawn decisions.

The buffer is bounded: once ``max_events`` is reached further events are
counted in ``dropped`` instead of stored, so a tracer attached to a long
run cannot exhaust memory.  Export targets are JSONL (one event per
line, the interchange format of ``repro-access obs export``) and Chrome
trace-event JSON (``{"traceEvents": [...]}``) loadable in Perfetto or
``chrome://tracing``.  In the Chrome export the two clocks become two
"processes" (sim-time and wall-clock) so they never share an axis; wall
timestamps are rebased to the earliest wall event so traces start at 0.

Nothing here mutates simulation state — tracing observes, never
perturbs — and nothing here runs at all when no tracer is attached.
"""

from __future__ import annotations

import json
import time
from collections import Counter
from contextlib import contextmanager
from typing import Dict, Iterable, List, Sequence, Tuple

#: Default event-buffer bound; generous for smoke-scale runs, small
#: enough that a runaway emitter cannot exhaust memory.
DEFAULT_MAX_EVENTS = 200_000

#: Chrome trace "pid" per clock; metadata events name them in the UI.
_CLOCK_PIDS = {"sim": 1, "wall": 2}
_CLOCK_LABELS = {"sim": "sim-time", "wall": "wall-clock"}

#: Gateway state codes (mirrors ``repro.access.gateway_array``) to the
#: span names used for per-gateway state segments.
_STATE_NAMES = {0: "sleeping", 1: "waking", 2: "active"}


class SimTracer:
    """Bounded buffer of structured trace events.

    The tracer is deliberately dumb: :meth:`event` and :meth:`span`
    append plain dicts, and every emitter guards its calls with an
    ``is not None`` check hoisted out of any hot loop — there is no
    no-op tracer class, because even a no-op method call per step would
    be measurable overhead in the kernel's inner loop.
    """

    def __init__(self, max_events: int = DEFAULT_MAX_EVENTS) -> None:
        if max_events <= 0:
            raise ValueError("max_events must be positive")
        self.max_events = int(max_events)
        self.events: List[dict] = []
        self.dropped = 0

    def __len__(self) -> int:
        return len(self.events)

    # -- emitters ---------------------------------------------------------

    def event(
        self,
        name: str,
        ts: float,
        *,
        clock: str = "sim",
        cat: str = "sim",
        tid: int = 0,
        **args: object,
    ) -> None:
        """Record an instant event at ``ts`` on the given clock."""
        self._push({
            "name": name, "ph": "i", "ts": float(ts),
            "clock": clock, "cat": cat, "tid": int(tid), "args": args,
        })

    def span(
        self,
        name: str,
        start: float,
        end: float,
        *,
        clock: str = "sim",
        cat: str = "sim",
        tid: int = 0,
        **args: object,
    ) -> None:
        """Record a complete span covering ``[start, end]``."""
        self._push({
            "name": name, "ph": "X", "ts": float(start),
            "dur": max(0.0, float(end) - float(start)),
            "clock": clock, "cat": cat, "tid": int(tid), "args": args,
        })

    @contextmanager
    def wall_span(self, name: str, *, cat: str = "sweep", tid: int = 0, **args: object):
        """Context manager timing its body on the wall clock."""
        start = time.perf_counter()
        try:
            yield
        finally:
            self.span(
                name, start, time.perf_counter(),
                clock="wall", cat=cat, tid=tid, **args,
            )

    def _push(self, event: dict) -> None:
        if len(self.events) >= self.max_events:
            self.dropped += 1
            return
        self.events.append(event)

    # -- summaries --------------------------------------------------------

    def counts(self) -> Dict[str, int]:
        """Event counts by name, in descending frequency order."""
        counter = Counter(event["name"] for event in self.events)
        return dict(counter.most_common())

    # -- export -----------------------------------------------------------

    def to_jsonl(self) -> str:
        """One JSON object per line; the ``obs export`` input format."""
        return "".join(
            json.dumps(event, sort_keys=True) + "\n" for event in self.events
        )

    def write_jsonl(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(self.to_jsonl())

    def to_chrome(self) -> dict:
        """Chrome trace-event JSON, loadable in Perfetto."""
        return chrome_trace_from_events(self.events, dropped=self.dropped)

    def write_chrome(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.to_chrome(), handle)
            handle.write("\n")


def chrome_trace_from_events(
    events: Sequence[dict], dropped: int = 0
) -> dict:
    """Convert tracer-format events to a Chrome trace-event document.

    Sim-time events keep their absolute timestamps (sim runs start at 0
    anyway); wall-clock events are rebased to the earliest wall event so
    the wall track also starts at 0.  Seconds become microseconds, the
    unit the trace-event format specifies.
    """
    wall_ts = [e["ts"] for e in events if e.get("clock") == "wall"]
    wall_origin = min(wall_ts) if wall_ts else 0.0
    trace_events: List[dict] = []
    clocks_seen = set()
    for event in events:
        clock = event.get("clock", "sim")
        clocks_seen.add(clock)
        ts = event["ts"] - (wall_origin if clock == "wall" else 0.0)
        out = {
            "name": event["name"],
            "ph": event.get("ph", "i"),
            "ts": ts * 1e6,
            "pid": _CLOCK_PIDS.get(clock, 0),
            "tid": event.get("tid", 0),
            "cat": event.get("cat", "sim"),
            "args": event.get("args", {}),
        }
        if out["ph"] == "i":
            out["s"] = "t"  # instant scope: thread
        if "dur" in event:
            out["dur"] = event["dur"] * 1e6
        trace_events.append(out)
    for clock in sorted(clocks_seen):
        trace_events.append({
            "name": "process_name", "ph": "M",
            "pid": _CLOCK_PIDS.get(clock, 0), "tid": 0,
            "args": {"name": _CLOCK_LABELS.get(clock, clock)},
        })
    return {
        "traceEvents": trace_events,
        "displayTimeUnit": "ms",
        "otherData": {"dropped_events": dropped},
    }


def read_jsonl_events(path) -> List[dict]:
    """Load a JSONL trace written by :meth:`SimTracer.write_jsonl`.

    Tolerant of blank and torn trailing lines, mirroring the timings
    ledger reader's posture: a damaged line costs that event, never the
    file.
    """
    events: List[dict] = []
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            try:
                event = json.loads(line)
            except json.JSONDecodeError:
                continue
            if isinstance(event, dict) and "name" in event and "ts" in event:
                events.append(event)
    return events


def add_gateway_segments(
    tracer: SimTracer,
    transitions: Iterable[Tuple[float, int, int, int]],
    horizon: float,
    *,
    cat: str = "gateway",
) -> int:
    """Convert a gateway transition log into per-gateway state spans.

    ``transitions`` is the ``GatewayArray.transition_log`` list of
    ``(sim_time, gateway_id, old_state, new_state)`` tuples, in time
    order.  Each gateway becomes one Chrome-trace thread (``tid``) whose
    timeline is tiled with ``gw.sleeping`` / ``gw.waking`` (the boot
    segment) / ``gw.active`` spans; the segment open at the end of the
    run is closed at ``horizon``.  Returns the number of spans emitted.
    """
    open_since: Dict[int, Tuple[float, int]] = {}
    emitted = 0
    for ts, gateway_id, old_state, new_state in transitions:
        start, state = open_since.get(gateway_id, (0.0, old_state))
        tracer.span(
            f"gw.{_STATE_NAMES.get(state, str(state))}", start, ts,
            clock="sim", cat=cat, tid=gateway_id, gateway=gateway_id,
        )
        emitted += 1
        open_since[gateway_id] = (ts, new_state)
    for gateway_id in sorted(open_since):
        start, state = open_since[gateway_id]
        if horizon > start:
            tracer.span(
                f"gw.{_STATE_NAMES.get(state, str(state))}", start, horizon,
                clock="sim", cat=cat, tid=gateway_id, gateway=gateway_id,
            )
            emitted += 1
    return emitted

"""The whole neighbourhood's gateway state in one structure-of-arrays.

:class:`GatewayArray` holds the Sleep-on-Idle state machines of every
gateway of a scenario in parallel arrays (power-state codes, wake
deadlines, last-traffic instants, sliding-window traffic counters) and
advances them in lockstep.  The design goal is O(changes), not O(gateways),
per simulator step:

* state-duration statistics are accrued lazily at transitions (the seed
  added ``dt`` to a counter per gateway per step),
* wake completions are gated by a single cached "earliest wake deadline"
  scalar, so the per-step check is one comparison,
* idle-timeout sleeps are gated by a conservative "earliest possible sleep"
  scalar that is only re-derived when it actually fires (deadlines can only
  move later once recorded, so the cached minimum is always safe),
* sliding-window load samples live in per-gateway parallel time/bits lists
  trimmed lazily at query time.

The per-gateway semantics are exactly those of
:class:`repro.access.gateway.Gateway` (which remains available for direct
use): same transition rules, same sliding-window load estimation, same
idle-timeout behaviour.
"""

from __future__ import annotations

from math import inf
from typing import Container, Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.access.soi import SoIConfig

#: Integer state codes used in :attr:`GatewayArray.state`.
STATE_SLEEPING = 0
STATE_WAKING = 1
STATE_ACTIVE = 2

#: Compact the lazily-trimmed sample lists once this many entries expired.
_SAMPLE_COMPACT_THRESHOLD = 512


class GatewayArray:
    """State machines of ``num_gateways`` gateways, advanced in lockstep.

    ``track_load`` controls whether the per-gateway sliding-window traffic
    samples (used by :meth:`utilization`) are maintained; schemes that never
    observe gateway load (plain SoI, no-sleep) can disable it and skip the
    bookkeeping entirely.
    """

    def __init__(
        self,
        num_gateways: int,
        backhaul_bps: float,
        soi: Optional[SoIConfig] = None,
        sleep_enabled: bool = True,
        load_window_s: float = 60.0,
        initially_sleeping: bool = True,
        track_load: bool = True,
        power_w: Optional[Tuple[Sequence[float], Sequence[float], Sequence[float]]] = None,
        wake_time_s: Optional[Sequence[float]] = None,
        generation: Optional[Sequence[int]] = None,
        num_generations: int = 1,
        out_of_service: Container[int] | Iterable[int] = (),
    ):
        """``power_w`` (heterogeneous fleets) holds per-gateway
        ``(active_w, sleep_w, wake_w)`` arrays consumed by
        :meth:`power_snapshot`; ``wake_time_s`` gives per-gateway wake
        durations overriding the scalar ``soi.wake_up_time_s``;
        ``generation`` maps each gateway to one of ``num_generations``
        fleet generations for the per-generation energy split.
        ``out_of_service`` gateways start absent (sleeping, unpowered,
        refusing wake requests) until :meth:`set_in_service` flips them.
        """
        if num_gateways <= 0:
            raise ValueError("num_gateways must be positive")
        if backhaul_bps <= 0:
            raise ValueError("backhaul_bps must be positive")
        if load_window_s <= 0:
            raise ValueError("load_window_s must be positive")
        self.num_gateways = num_gateways
        self.backhaul_bps = backhaul_bps
        self.soi = soi or SoIConfig()
        self.sleep_enabled = sleep_enabled
        self.load_window_s = load_window_s
        self.track_load = track_load

        initial = STATE_SLEEPING if sleep_enabled and initially_sleeping else STATE_ACTIVE
        n = num_gateways

        # --- fleet heterogeneity (optional) ----------------------------
        self.heterogeneous = power_w is not None
        if self.heterogeneous:
            active_w, sleep_w, wake_w = power_w
            if not (len(active_w) == len(sleep_w) == len(wake_w) == n):
                raise ValueError("power_w arrays must have one entry per gateway")
            self.active_w: List[float] = list(active_w)
            self.sleep_w: List[float] = list(sleep_w)
            self.wake_w: List[float] = list(wake_w)
        if wake_time_s is not None and len(wake_time_s) != n:
            raise ValueError("wake_time_s must have one entry per gateway")
        self._wake_time_s: Optional[List[float]] = (
            list(wake_time_s) if wake_time_s is not None else None
        )
        if generation is not None and len(generation) != n:
            raise ValueError("generation must have one entry per gateway")
        self._generation: List[int] = list(generation) if generation is not None else [0] * n
        if num_generations <= 0 or any(
            not 0 <= g < num_generations for g in self._generation
        ):
            raise ValueError("generation indices must lie in [0, num_generations)")
        self._num_generations = num_generations
        self._snapshot_version = -1
        self._snapshot: Tuple[Tuple[float, ...], ...] = ()

        # --- service membership (churn) --------------------------------
        self.in_service: List[bool] = [True] * n
        for gateway_id in out_of_service:
            if not 0 <= gateway_id < n:
                raise ValueError(
                    f"out_of_service gateway {gateway_id} is not in [0, {n})"
                )
            self.in_service[gateway_id] = False
        self.in_service_count = sum(self.in_service)

        self.state: List[int] = [
            initial if self.in_service[g] else STATE_SLEEPING for g in range(n)
        ]
        self.last_traffic_at: List[float] = [0.0] * n
        self.online_seconds: List[float] = [0.0] * n
        self.waking_seconds: List[float] = [0.0] * n
        #: Bumped on every state change; callers cache derived structures
        #: (online sets, DSLAM wiring, device counts) against it.
        self.version = 0
        #: Ids of the gateways that changed state since the caller last
        #: cleared this set (the simulator's DSLAM sync re-packs only the
        #: k-switches of these lines).
        self.changed_ids: Set[int] = set()
        #: Optional transition log for the obs layer: while a list is
        #: attached, every state change appends
        #: ``(now, gateway_id, old_state, new_state)``.  ``None`` (the
        #: default) costs one identity check per *transition* — never per
        #: step — and nothing else.
        self.transition_log: Optional[List[Tuple[float, int, int, int]]] = None

        self.active_count = self.state.count(STATE_ACTIVE)
        self.waking_count = 0

        # Lazy state-duration accrual: time each gateway entered its state.
        self._entered_at: List[float] = [0.0] * n
        # Wake deadlines of currently waking gateways + cached minimum.
        self._wake_deadline: Dict[int, float] = {}
        self._min_wake_deadline = inf
        # Conservative earliest instant any gateway could go to sleep.
        self._sleep_check_at = (
            self.soi.idle_timeout_s if (sleep_enabled and initial == STATE_ACTIVE) else inf
        )
        # With a zero idle timeout the sleep scan fires every step; counting
        # pinned-active gateways lets step_to skip it when nothing can sleep.
        self._count_pins = sleep_enabled and self.soi.idle_timeout_s == 0.0

        # Sliding-window traffic samples: parallel (time, bits) lists with a
        # lazily-advanced head index.
        self._sample_times: List[List[float]] = [[] for _ in range(n)]
        self._sample_bits: List[List[float]] = [[] for _ in range(n)]
        self._sample_head: List[int] = [0] * n
        # Exact utilisation-sum cache: (head, len, sum) per gateway — valid
        # whenever the live slice of the sample list is unchanged.
        self._util_cache: List[Tuple[int, int, float]] = [(0, 0, 0.0)] * n

    # ------------------------------------------------------------------
    # Counts and id sets
    # ------------------------------------------------------------------
    def not_sleeping_ids(self) -> List[int]:
        """Ids of gateways that are powered (active or waking)."""
        state = self.state
        return [g for g in range(self.num_gateways) if state[g] != STATE_SLEEPING]

    def online_ids(self) -> List[int]:
        """Ids of gateways that can carry traffic right now."""
        state = self.state
        return [g for g in range(self.num_gateways) if state[g] == STATE_ACTIVE]

    # ------------------------------------------------------------------
    # Mutations (mirroring Gateway semantics exactly)
    # ------------------------------------------------------------------
    def _change_state(self, gateway_id: int, new_state: int, now: float) -> None:
        """Transition one gateway, accruing the time spent in the old state."""
        old_state = self.state[gateway_id]
        elapsed = now - self._entered_at[gateway_id]
        if old_state == STATE_ACTIVE:
            self.online_seconds[gateway_id] += elapsed
            self.active_count -= 1
        elif old_state == STATE_WAKING:
            self.waking_seconds[gateway_id] += elapsed
            self.waking_count -= 1
        self.state[gateway_id] = new_state
        self._entered_at[gateway_id] = now
        if new_state == STATE_ACTIVE:
            self.active_count += 1
        elif new_state == STATE_WAKING:
            self.waking_count += 1
        self.version += 1
        self.changed_ids.add(gateway_id)
        log = self.transition_log
        if log is not None:
            log.append((now, gateway_id, old_state, new_state))

    def request_wake(self, gateway_id: int, now: float) -> None:
        """Ask a sleeping gateway to power on; waking/active ones ignore it.

        Out-of-service gateways (decommissioned, failed, or not yet
        deployed) also ignore wake requests.
        """
        if self.state[gateway_id] == STATE_SLEEPING and self.in_service[gateway_id]:
            self._change_state(gateway_id, STATE_WAKING, now)
            wake_times = self._wake_time_s
            deadline = now + (
                wake_times[gateway_id] if wake_times is not None else self.soi.wake_up_time_s
            )
            self._wake_deadline[gateway_id] = deadline
            if deadline < self._min_wake_deadline:
                self._min_wake_deadline = deadline

    def force_sleep(self, gateway_id: int, now: float) -> None:
        """Put a gateway to sleep immediately, whatever it is doing.

        Used by churn events (failures, decommissioning): a pending wake is
        cancelled and the sliding-window traffic samples are cleared, just
        as an idle-timeout sleep would.
        """
        state = self.state[gateway_id]
        if state == STATE_SLEEPING:
            return
        if state == STATE_WAKING and gateway_id in self._wake_deadline:
            del self._wake_deadline[gateway_id]
            self._min_wake_deadline = (
                min(self._wake_deadline.values()) if self._wake_deadline else inf
            )
        self._change_state(gateway_id, STATE_SLEEPING, now)
        if self.track_load:
            self._sample_times[gateway_id].clear()
            self._sample_bits[gateway_id].clear()
            self._sample_head[gateway_id] = 0
            self._util_cache[gateway_id] = (0, 0, 0.0)

    def set_in_service(
        self, gateway_id: int, flag: bool, now: float, activate: bool = False
    ) -> None:
        """Flip a gateway's service membership at instant ``now``.

        Going out of service force-sleeps the device (it is unplugged: it
        draws nothing and refuses wake requests).  Coming back,
        ``activate=True`` powers it straight to ACTIVE (always-on schemes);
        otherwise it stays asleep, ready to wake on demand.
        """
        if self.in_service[gateway_id] == flag:
            return
        if flag:
            self.in_service[gateway_id] = True
            self.in_service_count += 1
            self.last_traffic_at[gateway_id] = now
            if activate and self.state[gateway_id] != STATE_ACTIVE:
                self._change_state(gateway_id, STATE_ACTIVE, now)
            else:
                # No state change, but power/DSLAM caches keyed on the
                # version must notice the membership flip.
                self.version += 1
        else:
            self.in_service[gateway_id] = False
            self.in_service_count -= 1
            self.force_sleep(gateway_id, now)
            self.version += 1

    def touch(self, gateway_id: int, now: float) -> None:
        """Mark traffic presence without volume (e.g. a pending arrival)."""
        if now > self.last_traffic_at[gateway_id]:
            self.last_traffic_at[gateway_id] = now

    def record_served(self, end: float, totals: Dict[int, float]) -> None:
        """Report the bits served per gateway over the step ending at ``end``.

        Stores what a ``Gateway.record_traffic(bits, end)`` call per
        gateway with traffic would, apart from its served total: the
        last-traffic instant and, while load is tracked, one ``(end, bits)``
        sample.
        """
        track = self.track_load
        last_traffic = self.last_traffic_at
        for gateway_id, bits in totals.items():
            if bits > 0:
                last_traffic[gateway_id] = end
                if track:
                    self._sample_times[gateway_id].append(end)
                    self._sample_bits[gateway_id].append(bits)

    # ------------------------------------------------------------------
    # Load estimation
    # ------------------------------------------------------------------
    def _trim_samples(self, gateway_id: int, now: float) -> int:
        horizon = now - self.load_window_s
        times = self._sample_times[gateway_id]
        head = self._sample_head[gateway_id]
        end = len(times)
        while head < end and times[head] < horizon:
            head += 1
        if head >= _SAMPLE_COMPACT_THRESHOLD:
            del times[:head]
            del self._sample_bits[gateway_id][:head]
            head = 0
        self._sample_head[gateway_id] = head
        return head

    def utilization(self, gateway_id: int, now: float) -> float:
        """Backhaul utilisation over the trailing load window (0..1)."""
        window = self.load_window_s
        times = self._sample_times[gateway_id]
        length = len(times)
        cached_head, cached_length, bits = self._util_cache[gateway_id]
        if (
            cached_length == length
            and now >= window
            and (cached_head == length or times[cached_head] >= now - window)
        ):
            # Nothing appended and nothing expired: the cached window sum
            # (and the constant window width) give the exact same value.
            load = bits / (self.backhaul_bps * window)
            return load if load < 1.0 else 1.0
        head = self._trim_samples(gateway_id, now)
        sample_bits = self._sample_bits[gateway_id]
        length = len(sample_bits)
        bits = sum(sample_bits[head:]) if head else sum(sample_bits)
        self._util_cache[gateway_id] = (head, length, bits)
        window = min(window, max(now, 1e-9))
        load = bits / (self.backhaul_bps * window)
        return load if load < 1.0 else 1.0

    # ------------------------------------------------------------------
    # Time stepping
    # ------------------------------------------------------------------
    def step_to(
        self,
        end: float,
        pending: Container[int] | Iterable[int],
        extra_pending: Container[int] | Iterable[int] = (),
    ) -> bool:
        """Advance every state machine to instant ``end``.

        ``pending`` (and the optional ``extra_pending``) hold the gateway
        ids that have traffic assigned (active or waiting flows, or an
        external keep-online directive); they get their idle clock re-armed
        and can never hit the idle timeout, exactly as in ``Gateway.step``.
        Transitions (wake completion, idle-timeout sleep) are evaluated at
        ``end``; callers must guarantee no transition falls strictly inside
        the advanced interval.  Returns whether any gateway changed state.
        """
        last_traffic = self.last_traffic_at
        if self._count_pins:
            # Zero idle timeout: the sleep scan would otherwise run every
            # step, so count how many active gateways are pinned — when all
            # of them are, nothing can sleep and the scan is skipped.
            state = self.state
            pinned_active = 0
            for gateway_id in pending:
                last_traffic[gateway_id] = end
                if state[gateway_id] == STATE_ACTIVE:
                    pinned_active += 1
            for gateway_id in extra_pending:
                if last_traffic[gateway_id] != end:
                    last_traffic[gateway_id] = end
                    if state[gateway_id] == STATE_ACTIVE:
                        pinned_active += 1
        else:
            pinned_active = -1
            for gateway_id in pending:
                last_traffic[gateway_id] = end
            for gateway_id in extra_pending:
                last_traffic[gateway_id] = end
        changed = False
        woken: List[int] = []
        if end >= self._min_wake_deadline:
            woken = [
                g for g, deadline in self._wake_deadline.items() if end >= deadline
            ]
            for gateway_id in woken:
                del self._wake_deadline[gateway_id]
                self._change_state(gateway_id, STATE_ACTIVE, end)
                last_traffic[gateway_id] = end  # fresh boot restarts the idle clock
            self._min_wake_deadline = (
                min(self._wake_deadline.values()) if self._wake_deadline else inf
            )
            if self.sleep_enabled and woken:
                candidate = end + self.soi.idle_timeout_s
                if candidate < self._sleep_check_at:
                    self._sleep_check_at = candidate
            changed = bool(woken)
        if self.sleep_enabled and end >= self._sleep_check_at:
            timeout = self.soi.idle_timeout_s
            if pinned_active == self.active_count and not woken:
                # Every active gateway is pinned: nothing can sleep.
                self._sleep_check_at = end + timeout
                return changed
            state = self.state
            next_check = inf
            for gateway_id in range(self.num_gateways):
                if state[gateway_id] != STATE_ACTIVE:
                    continue
                # A gateway that completed waking this very step is not
                # sleep-checked until the next one (the seed's elif).
                if gateway_id in pending or gateway_id in woken or gateway_id in extra_pending:
                    deadline = end + timeout
                elif end - last_traffic[gateway_id] >= timeout:
                    self._change_state(gateway_id, STATE_SLEEPING, end)
                    if self.track_load:
                        self._sample_times[gateway_id].clear()
                        self._sample_bits[gateway_id].clear()
                        self._sample_head[gateway_id] = 0
                        self._util_cache[gateway_id] = (0, 0, 0.0)
                    changed = True
                    continue
                else:
                    deadline = last_traffic[gateway_id] + timeout
                if deadline < next_check:
                    next_check = deadline
            self._sleep_check_at = next_check
        return changed

    def power_snapshot(self) -> Tuple[Tuple[float, ...], ...]:
        """Per-generation ``(active_w, waking_w, sleeping_w)`` power sums.

        Heterogeneous fleets only.  Recomputed with a fixed summation order
        when the version changed (so equal versions return the *same*
        object) and cached otherwise; out-of-service gateways contribute
        nothing — an unplugged device has no standby draw.
        """
        if not self.heterogeneous:
            raise RuntimeError("power_snapshot needs per-gateway power arrays")
        if self._snapshot_version == self.version:
            return self._snapshot
        num_generations = self._num_generations
        active = [0.0] * num_generations
        waking = [0.0] * num_generations
        sleeping = [0.0] * num_generations
        state = self.state
        generation = self._generation
        in_service = self.in_service
        for gateway_id in range(self.num_gateways):
            code = state[gateway_id]
            bucket = generation[gateway_id]
            if code == STATE_ACTIVE:
                active[bucket] += self.active_w[gateway_id]
            elif code == STATE_WAKING:
                waking[bucket] += self.wake_w[gateway_id]
            elif in_service[gateway_id]:
                sleeping[bucket] += self.sleep_w[gateway_id]
        self._snapshot = (tuple(active), tuple(waking), tuple(sleeping))
        self._snapshot_version = self.version
        return self._snapshot

    def idle_transition_candidates(self, now: float) -> float:
        """Seed-equivalent ``next_transition_time`` minimum for the idle path.

        Mirrors the per-gateway scan of ``Gateway.next_transition_time``:
        waking gateways transition at their wake deadline, sleep-capable
        active gateways at ``last_traffic + idle_timeout``; only instants
        strictly after ``now`` qualify.
        """
        best = inf
        for deadline in self._wake_deadline.values():
            if now < deadline < best:
                best = deadline
        if self.sleep_enabled:
            timeout = self.soi.idle_timeout_s
            state = self.state
            last_traffic = self.last_traffic_at
            for gateway_id in range(self.num_gateways):
                if state[gateway_id] == STATE_ACTIVE:
                    expiry = last_traffic[gateway_id] + timeout
                    if now < expiry < best:
                        best = expiry
        return best

    def flush_statistics(self, now: float) -> None:
        """Accrue the in-progress state spans so the duration stats are final."""
        for gateway_id in range(self.num_gateways):
            elapsed = now - self._entered_at[gateway_id]
            if elapsed <= 0:
                continue
            state = self.state[gateway_id]
            if state == STATE_ACTIVE:
                self.online_seconds[gateway_id] += elapsed
            elif state == STATE_WAKING:
                self.waking_seconds[gateway_id] += elapsed
            self._entered_at[gateway_id] = now

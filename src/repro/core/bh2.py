"""Broadband Hitch-Hiking (BH2): the distributed aggregation algorithm.

BH2 runs on user terminals.  Every decision period (150 s with a random
offset in the paper) a terminal compares the load of the gateway it is
currently attached to against a *low* and a *high* threshold and decides
whether to hitch-hike onto a neighbouring gateway, move to a different
neighbour, or return home:

* attached to the **home** gateway with load below the low threshold →
  look for online remote gateways whose load lies between the two
  thresholds; if more than ``backup`` such candidates exist, move to one of
  them chosen randomly with probability proportional to its load (so
  moderately loaded gateways attract hitch-hikers and lightly loaded ones
  are left free to sleep).
* attached to a **remote** gateway whose load dropped below the low
  threshold → same search among the other gateways in range; if the backup
  requirement cannot be met, return home (waking the home gateway if
  needed).
* attached to a **remote** gateway whose load exceeded the high threshold →
  return home.

The terminal never wakes a remote gateway (it only knows the MAC address of
its own home gateway), so only *online* remote gateways are candidates.
"""

from __future__ import annotations

import enum
from bisect import bisect_right
from dataclasses import dataclass
from typing import Callable, Dict, FrozenSet, List, Optional, Sequence, Tuple

import numpy as np

from repro.access.gateway_array import STATE_ACTIVE


@dataclass(frozen=True)
class BH2Config:
    """Parameters of the BH2 algorithm (defaults from Sec. 5.1).

    ``candidate_min_load`` controls which remote gateways are considered
    eligible to receive hitch-hiking traffic: a candidate must be online,
    below the high threshold, and *not a candidate for going to sleep*.  The
    paper's text equates the latter with "load above the low threshold"; at
    the per-gateway loads the traces actually exhibit (a few percent of a
    6 Mbps backhaul) that literal reading prevents aggregation from ever
    bootstrapping, so by default we interpret "not about to sleep" as
    "currently carrying some traffic" (load above a small epsilon — a
    gateway with any continuous light traffic never reaches its idle
    timeout, which is the paper's own premise).  Set
    ``candidate_min_load=low_threshold`` to recover the literal reading;
    the ablation benchmark compares both.
    """

    low_threshold: float = 0.10
    high_threshold: float = 0.50
    backup: int = 1
    decision_period_s: float = 150.0
    load_window_s: float = 60.0
    candidate_min_load: float = 0.01

    def __post_init__(self) -> None:
        if not 0 <= self.low_threshold < self.high_threshold <= 1:
            raise ValueError(
                "thresholds must satisfy 0 <= low < high <= 1, got "
                f"low={self.low_threshold}, high={self.high_threshold}"
            )
        if not 0 <= self.candidate_min_load < self.high_threshold:
            raise ValueError("candidate_min_load must lie in [0, high_threshold)")
        if self.backup < 0:
            raise ValueError("backup must be non-negative")
        if self.decision_period_s <= 0 or self.load_window_s <= 0:
            raise ValueError("periods must be positive")

    def strict_paper_variant(self) -> "BH2Config":
        """The literal Eq.-free reading of Sec. 3.1: candidates need load > low."""
        return BH2Config(
            low_threshold=self.low_threshold,
            high_threshold=self.high_threshold,
            backup=self.backup,
            decision_period_s=self.decision_period_s,
            load_window_s=self.load_window_s,
            candidate_min_load=self.low_threshold,
        )


class BH2Action(enum.Enum):
    """Outcome of one BH2 decision."""

    STAY = "stay"
    MOVE_TO_REMOTE = "move_to_remote"
    RETURN_HOME = "return_home"


@dataclass(frozen=True)
class GatewayObservation:
    """What a terminal knows about one gateway in range at decision time.

    ``load`` is the estimated backhaul utilisation (0..1) obtained by
    counting MAC sequence numbers; ``online`` is whether the gateway is
    currently beaconing (a sleeping gateway is simply absent from the air).
    """

    gateway_id: int
    online: bool
    load: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.load <= 1.0:
            raise ValueError("load must lie in [0, 1]")


@dataclass(frozen=True)
class BH2Decision:
    """The decision taken by a terminal at one decision instant."""

    action: BH2Action
    selected_gateway: int
    wake_home: bool = False


class BH2Terminal:
    """The BH2 state machine of one user terminal."""

    def __init__(
        self,
        client_id: int,
        home_gateway: int,
        reachable_gateways: FrozenSet[int],
        config: Optional[BH2Config] = None,
        rng: Optional[np.random.Generator] = None,
        watt_bias: Optional[Sequence[float]] = None,
    ):
        """``watt_bias`` (watt-aware schemes, heterogeneous fleets only)
        holds one positive preference multiplier per gateway — see
        :meth:`repro.wattopt.cost.WattCostModel.bias` — applied to
        candidate loads when hitch-hiking targets are drawn, so efficient
        generations attract proportionally more terminals.  ``None`` (the
        default, and the homogeneous fleet) keeps the paper's pure
        load-proportional draw, bit for bit.
        """
        if home_gateway not in reachable_gateways:
            raise ValueError("the home gateway must be reachable")
        if watt_bias is not None and any(b <= 0 for b in watt_bias):
            raise ValueError("watt_bias entries must be positive")
        self.client_id = client_id
        self.home_gateway = home_gateway
        self.reachable_gateways = frozenset(reachable_gateways)
        #: The remote gateways in range, in the frozenset's iteration order
        #: (the order :meth:`_candidate_gateways` visits them in).
        self._neighbours = tuple(
            gateway_id for gateway_id in self.reachable_gateways if gateway_id != home_gateway
        )
        self.config = cfg = config or BH2Config()
        # Plain copies of the (frozen) config for the hot decision path.
        self._low = cfg.low_threshold
        self._high = cfg.high_threshold
        self._min_load = cfg.candidate_min_load
        self._backup = cfg.backup
        self._period = cfg.decision_period_s
        self.watt_bias = list(watt_bias) if watt_bias is not None else None
        self._rng = rng if rng is not None else np.random.default_rng(client_id)
        #: The gateway the terminal currently directs new traffic to.
        self.current_gateway: int = home_gateway
        #: Random offset so terminals do not all decide at the same instant.
        self.decision_offset_s: float = float(self._rng.uniform(0, self.config.decision_period_s))
        self._next_decision_at: float = self.decision_offset_s

    # ------------------------------------------------------------------
    @property
    def at_home(self) -> bool:
        """Whether the terminal currently routes traffic through its home gateway."""
        return self.current_gateway == self.home_gateway

    def decision_due(self, now: float) -> bool:
        """Whether a new decision should be taken at time ``now``."""
        return now >= self._next_decision_at

    def schedule_next_decision(self, now: float) -> None:
        """Advance the decision timer past ``now``."""
        period = self.config.decision_period_s
        while self._next_decision_at <= now:
            self._next_decision_at += period

    # ------------------------------------------------------------------
    def decide(self, now: float, observations: Dict[int, GatewayObservation]) -> BH2Decision:
        """Run one BH2 decision given the current gateway observations.

        ``observations`` must contain an entry for every reachable gateway;
        missing gateways are treated as offline.  This is the plain reading
        of Sec. 3.1 and the oracle of :meth:`decide_fast`: the seed kernel
        runs it, and the equivalence tests require the same decisions and
        RNG draws from both.
        """
        self.schedule_next_decision(now)
        current_obs = observations.get(self.current_gateway)
        current_load = current_obs.load if current_obs and current_obs.online else 0.0
        current_online = bool(current_obs and current_obs.online)

        if self.at_home:
            decision = self._decide_at_home(current_load, current_online, observations)
        else:
            decision = self._decide_at_remote(current_load, current_online, observations)
        self.current_gateway = decision.selected_gateway
        return decision

    # ------------------------------------------------------------------
    def _candidate_gateways(
        self, observations: Dict[int, GatewayObservation], exclude: FrozenSet[int]
    ) -> List[GatewayObservation]:
        """Remote gateways eligible to receive this terminal's traffic.

        Two-tier selection: gateways whose load already sits between the low
        and high thresholds (established aggregation points that are clearly
        not about to sleep) are preferred; only when there are not enough of
        them does the terminal consider any online gateway that carries some
        traffic (load above ``candidate_min_load``).  The second tier is what
        lets aggregation bootstrap when every gateway is lightly loaded.
        """
        cfg = self.config
        preferred: List[GatewayObservation] = []
        fallback: List[GatewayObservation] = []
        for gateway_id in self.reachable_gateways:
            if gateway_id in exclude:
                continue
            obs = observations.get(gateway_id)
            if obs is None or not obs.online:
                continue
            if obs.load >= cfg.high_threshold:
                continue
            if obs.load > cfg.low_threshold:
                preferred.append(obs)
            elif obs.load > cfg.candidate_min_load:
                fallback.append(obs)
        if len(preferred) > cfg.backup:
            return preferred
        return preferred + fallback

    def _pick_proportional_to_load(self, candidates: List[GatewayObservation]) -> int:
        """Randomly select a candidate with probability proportional to its load.

        With a ``watt_bias`` the draw weights are ``load * bias`` instead,
        tilting the choice toward efficient-generation gateways.
        """
        bias = self.watt_bias
        if bias is None:
            loads = np.array([c.load for c in candidates], dtype=float)
        else:
            loads = np.array([c.load * bias[c.gateway_id] for c in candidates], dtype=float)
        total = loads.sum()
        if total <= 0:
            index = int(self._rng.integers(len(candidates)))
        else:
            index = int(self._rng.choice(len(candidates), p=loads / total))
        return candidates[index].gateway_id

    def _decide_at_home(
        self,
        home_load: float,
        home_online: bool,
        observations: Dict[int, GatewayObservation],
    ) -> BH2Decision:
        cfg = self.config
        if home_online and home_load >= cfg.low_threshold:
            return BH2Decision(action=BH2Action.STAY, selected_gateway=self.home_gateway)
        # Home gateway is lightly loaded (or already asleep): try to hitch-hike.
        candidates = self._candidate_gateways(observations, exclude=frozenset({self.home_gateway}))
        if len(candidates) > cfg.backup:
            selected = self._pick_proportional_to_load(candidates)
            return BH2Decision(action=BH2Action.MOVE_TO_REMOTE, selected_gateway=selected)
        return BH2Decision(action=BH2Action.STAY, selected_gateway=self.home_gateway)

    def _decide_at_remote(
        self,
        remote_load: float,
        remote_online: bool,
        observations: Dict[int, GatewayObservation],
    ) -> BH2Decision:
        cfg = self.config
        if not remote_online or remote_load >= cfg.high_threshold:
            # The remote gateway saturated or disappeared: go home.
            return BH2Decision(
                action=BH2Action.RETURN_HOME,
                selected_gateway=self.home_gateway,
                wake_home=not self._home_online(observations),
            )
        if remote_load >= cfg.low_threshold:
            return BH2Decision(action=BH2Action.STAY, selected_gateway=self.current_gateway)
        # Remote gateway is itself a candidate for sleeping: look elsewhere.
        candidates = self._candidate_gateways(
            observations, exclude=frozenset({self.current_gateway, self.home_gateway})
        )
        if len(candidates) > cfg.backup:
            selected = self._pick_proportional_to_load(candidates)
            return BH2Decision(action=BH2Action.MOVE_TO_REMOTE, selected_gateway=selected)
        return BH2Decision(
            action=BH2Action.RETURN_HOME,
            selected_gateway=self.home_gateway,
            wake_home=not self._home_online(observations),
        )

    # ------------------------------------------------------------------
    # Fast path over the live gateway state (the simulator's decision rounds)
    # ------------------------------------------------------------------
    def decide_fast(
        self,
        now: float,
        state: Sequence[int],
        utilization: Callable[[int, float], float],
    ) -> "Tuple[int, bool]":
        """Run one BH2 decision against the live gateway state.

        Behaviourally identical to :meth:`decide` (same decisions, same RNG
        consumption) but reads power-state codes straight
        out of ``state`` (a gateway is online when its code is
        ``STATE_ACTIVE``) and asks ``utilization(gateway, now)`` for the
        load of only the gateways it examines: its current gateway, then,
        when it looks for a hitch-hiking target, the online gateways in its
        range.  Each decision builds only what its outcome needs: the
        preferred and fallback tiers are created when a gateway first
        qualifies for one, so a terminal that finds no candidate stays or
        returns home without building any list.  Returns just
        ``(selected_gateway, wake_home)``.  The simulator passes
        :attr:`GatewayArray.state` and :meth:`GatewayArray.utilization`.
        """
        next_at = self._next_decision_at
        period = self._period
        while next_at <= now:
            next_at += period
        self._next_decision_at = next_at
        current = self.current_gateway
        at_home = current == self.home_gateway
        low = self._low
        if state[current] == STATE_ACTIVE:
            load = utilization(current, now)
            if at_home:
                if load >= low:
                    return current, False
            elif load >= self._high:
                return self._return_home_fast(state)
            elif load >= low:
                return current, False
        elif not at_home:
            return self._return_home_fast(state)

        # The current gateway is lightly loaded or asleep: search the other
        # gateways in range, in the tiers and order of _candidate_gateways.
        high = self._high
        min_load = self._min_load
        preferred: Optional[List[int]] = None
        fallback: Optional[List[int]] = None
        for gateway_id in self._neighbours:
            if gateway_id == current or state[gateway_id] != STATE_ACTIVE:
                continue
            load = utilization(gateway_id, now)
            if load >= high:
                continue
            if load > low:
                if preferred is None:
                    preferred, preferred_loads = [gateway_id], [load]
                else:
                    preferred.append(gateway_id)
                    preferred_loads.append(load)
            elif load > min_load:
                if fallback is None:
                    fallback, fallback_loads = [gateway_id], [load]
                else:
                    fallback.append(gateway_id)
                    fallback_loads.append(load)
        backup = self._backup
        if preferred is not None and len(preferred) > backup:
            ids, loads = preferred, preferred_loads
        elif fallback is None:
            ids = None
        elif preferred is None:
            ids, loads = fallback, fallback_loads
        else:
            ids, loads = preferred + fallback, preferred_loads + fallback_loads
        if ids is not None and len(ids) > backup:
            selected = self._pick_fast(ids, loads)
            self.current_gateway = selected
            return selected, False
        if at_home:
            return current, False
        return self._return_home_fast(state)

    def _return_home_fast(self, state: Sequence[int]) -> "Tuple[int, bool]":
        wake_home = state[self.home_gateway] != STATE_ACTIVE
        self.current_gateway = self.home_gateway
        return self.home_gateway, wake_home

    def _pick_fast(self, ids: List[int], loads: List[float]) -> int:
        """Twin of :meth:`_pick_proportional_to_load` (same RNG draws).

        Inlines ``Generator.choice(n, p=loads / total)``'s sampling: the
        cumulative sum of ``p``, divided by its last entry, is searched
        (right side) with one ``random()`` draw, so it consumes exactly
        what the real call does, without its validation overhead; pinned
        by a regression test.  Below 8 candidates the total and the
        cumulative sum are plain left-to-right ``+=`` loops and the search
        is :func:`bisect.bisect_right`: numpy's float64 ``sum()`` and
        ``cumsum()`` add in that order there, but from 8 elements ``sum()``
        adds in unrolled blocks of 8, so larger draws keep the arrays.
        (The built-in ``sum()`` is compensated from Python 3.12.)

        With a ``watt_bias`` the weights become ``load * bias`` (same
        single draw from the RNG stream either way).
        """
        bias = self.watt_bias
        if bias is not None:
            loads = [load * bias[g] for g, load in zip(ids, loads)]
        count = len(ids)
        if count < 8:
            total = 0.0
            for load in loads:
                total += load
            if total <= 0:
                return ids[int(self._rng.integers(count))]
            cdf = []
            running = 0.0
            for load in loads:
                running += load / total
                cdf.append(running)
            cdf = [value / running for value in cdf]
            return ids[bisect_right(cdf, self._rng.random())]
        load_array = np.array(loads, dtype=float)
        total = load_array.sum()
        if total <= 0:
            index = int(self._rng.integers(count))
        else:
            cdf_array = (load_array / total).cumsum()
            cdf_array /= cdf_array[-1]
            index = int(cdf_array.searchsorted(self._rng.random(), "right"))
        return ids[index]

    def _home_online(self, observations: Dict[int, GatewayObservation]) -> bool:
        obs = observations.get(self.home_gateway)
        return bool(obs and obs.online)

    def __repr__(self) -> str:
        where = "home" if self.at_home else f"remote {self.current_gateway}"
        return f"<BH2Terminal client={self.client_id} at {where}>"

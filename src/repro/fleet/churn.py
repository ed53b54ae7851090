"""Mid-trace fleet dynamics: a declarative timeline of churn events.

The paper's deployment is static: the same gateways and subscribers are
present for the whole trace.  A :class:`ChurnTimeline` lifts that
restriction declaratively — gateways power on (join) mid-trace, get
decommissioned, or fail transiently, and clients subscribe or cancel —
without touching the trace itself.  The simulator compiles the timeline
into primitive in/out-of-service *actions* executed at their exact
instants: the kernel cuts any step short to land on one.

Semantics:

* An entity whose **first** event is a ``*_JOIN`` is absent from the start
  of the trace until that instant (a staged deployment); otherwise it is
  present from t=0.
* ``GATEWAY_LEAVE`` is permanent decommissioning; ``GATEWAY_FAIL`` is a
  transient outage of ``duration_s`` seconds after which the gateway is
  back in service (sleeping, ready to wake on demand).
* An out-of-service gateway draws **no power at all** (it is unplugged,
  not sleeping), ignores wake requests, and its flows are rescued onto a
  reachable in-service gateway (or dropped when none exists).
* An out-of-service client's trace arrivals are suppressed; its in-flight
  flows are cancelled the moment it unsubscribes.
* ``DSLAM_FAIL`` is a *correlated* outage: every gateway of the
  deployment (they all hang off one DSLAM) goes out of service at the
  same instant and recovers together ``duration_s`` seconds later, with
  the same rescue/drop semantics as per-gateway failures — during the
  window no rescue target exists, so in-flight flows are dropped and new
  arrivals are lost.  The event is entity-less; :meth:`compile` expands
  it against the concrete gateway population.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, List, NamedTuple, Optional, Sequence, Set, Tuple


class ChurnKind(enum.Enum):
    """What happens at a churn event."""

    GATEWAY_JOIN = "gateway-join"
    GATEWAY_LEAVE = "gateway-leave"
    GATEWAY_FAIL = "gateway-fail"
    CLIENT_JOIN = "client-join"
    CLIENT_LEAVE = "client-leave"
    #: Correlated whole-DSLAM outage: all gateways fail/recover together.
    DSLAM_FAIL = "dslam-fail"

    @property
    def is_gateway(self) -> bool:
        """Whether the compiled actions flip *gateway* service state."""
        return self in (
            ChurnKind.GATEWAY_JOIN,
            ChurnKind.GATEWAY_LEAVE,
            ChurnKind.GATEWAY_FAIL,
            ChurnKind.DSLAM_FAIL,
        )

    @property
    def is_broadcast(self) -> bool:
        """Whether the event targets the whole population (no entity id)."""
        return self is ChurnKind.DSLAM_FAIL


@dataclass(frozen=True)
class ChurnEvent:
    """One dated event of a churn timeline."""

    at_s: float
    kind: ChurnKind
    gateway_id: Optional[int] = None
    client_id: Optional[int] = None
    #: Outage length; ``GATEWAY_FAIL`` only.
    duration_s: Optional[float] = None

    def __post_init__(self) -> None:
        if self.at_s < 0:
            raise ValueError("at_s must be non-negative")
        if self.kind.is_broadcast:
            if self.gateway_id is not None or self.client_id is not None:
                raise ValueError(f"{self.kind.value} events take no entity id")
        elif self.kind.is_gateway:
            if self.gateway_id is None or self.client_id is not None:
                raise ValueError(f"{self.kind.value} events need exactly a gateway_id")
        else:
            if self.client_id is None or self.gateway_id is not None:
                raise ValueError(f"{self.kind.value} events need exactly a client_id")
        if self.kind in (ChurnKind.GATEWAY_FAIL, ChurnKind.DSLAM_FAIL):
            if self.duration_s is None or self.duration_s <= 0:
                raise ValueError(f"{self.kind.value} events need a positive duration_s")
        elif self.duration_s is not None:
            raise ValueError(f"{self.kind.value} events take no duration_s")

    def canonical(self) -> List[object]:
        """Digest-stable rendering of the event."""
        return [self.at_s, self.kind.value, self.gateway_id, self.client_id, self.duration_s]


class ChurnAction(NamedTuple):
    """One compiled primitive: flip an entity in or out of service."""

    at_s: float
    seq: int
    kind: ChurnKind  # the originating event kind (JOIN/LEAVE/FAIL semantics)
    entity_id: int
    #: True flips the entity into service, False out of it.
    into_service: bool


@dataclass(frozen=True)
class ChurnTimeline:
    """An ordered set of churn events plus its compiled execution plan."""

    events: Tuple[ChurnEvent, ...] = ()

    def __post_init__(self) -> None:
        ordered = tuple(sorted(self.events, key=lambda e: e.at_s))
        object.__setattr__(self, "events", ordered)
        self._validate_sequences()

    # ------------------------------------------------------------------
    def _validate_sequences(self) -> None:
        """Enforce a sane per-entity life cycle (present/absent alternation).

        Whole-DSLAM outage windows additionally must not overlap each other
        and must fall entirely inside an in-service stretch of every
        gateway the timeline mentions individually: the broadcast flips
        *every* gateway out and back, so a gateway that is absent, failed
        or transitioning inside the window would be double-flipped.
        """
        # (is_gateway, id) -> (present, busy_until) state machine.
        state: Dict[Tuple[bool, int], Tuple[bool, float]] = {}
        first_kind: Dict[Tuple[bool, int], ChurnKind] = {}
        #: Per-gateway-entity service transitions: (instant, into_service).
        service_changes: Dict[int, List[Tuple[float, bool]]] = {}
        initially_in_service: Dict[int, bool] = {}
        dslam_windows: List[Tuple[float, float]] = []
        for event in self.events:
            if event.kind.is_broadcast:
                dslam_windows.append(
                    (event.at_s, event.at_s + (event.duration_s or 0.0))
                )
                continue
            is_gateway = event.kind.is_gateway
            entity = event.gateway_id if is_gateway else event.client_id
            key = (is_gateway, entity)
            if key not in first_kind:
                first_kind[key] = event.kind
                initially_present = event.kind not in (
                    ChurnKind.GATEWAY_JOIN, ChurnKind.CLIENT_JOIN
                )
                state[key] = (initially_present, 0.0)
                if is_gateway:
                    initially_in_service[entity] = initially_present
                    service_changes[entity] = []
            present, busy_until = state[key]
            if event.at_s < busy_until:
                raise ValueError(
                    f"event at t={event.at_s} overlaps an earlier outage of "
                    f"{'gateway' if is_gateway else 'client'} {entity}"
                )
            if event.kind in (ChurnKind.GATEWAY_JOIN, ChurnKind.CLIENT_JOIN):
                if present:
                    raise ValueError(
                        f"{'gateway' if is_gateway else 'client'} {entity} joins "
                        f"at t={event.at_s} while already present"
                    )
                state[key] = (True, busy_until)
                if is_gateway:
                    service_changes[entity].append((event.at_s, True))
            elif event.kind in (ChurnKind.GATEWAY_LEAVE, ChurnKind.CLIENT_LEAVE):
                if not present:
                    raise ValueError(
                        f"{'gateway' if is_gateway else 'client'} {entity} leaves "
                        f"at t={event.at_s} while absent"
                    )
                state[key] = (False, busy_until)
                if is_gateway:
                    service_changes[entity].append((event.at_s, False))
            else:  # GATEWAY_FAIL: transient, entity stays present afterwards
                if not present:
                    raise ValueError(
                        f"gateway {entity} fails at t={event.at_s} while absent"
                    )
                recovery = event.at_s + (event.duration_s or 0.0)
                state[key] = (True, recovery)
                service_changes[entity].append((event.at_s, False))
                service_changes[entity].append((recovery, True))
        self._validate_dslam_windows(
            dslam_windows, initially_in_service, service_changes
        )

    @staticmethod
    def _validate_dslam_windows(
        windows: List[Tuple[float, float]],
        initially_in_service: Dict[int, bool],
        service_changes: Dict[int, List[Tuple[float, bool]]],
    ) -> None:
        previous_end = -1.0
        for start, end in sorted(windows):
            if start < previous_end:
                raise ValueError(
                    f"whole-DSLAM outage at t={start} overlaps an earlier one"
                )
            previous_end = end
        for gateway_id, changes in service_changes.items():
            # In-service intervals of this gateway, as [start, end) pieces.
            in_service = initially_in_service[gateway_id]
            piece_start = 0.0
            pieces: List[Tuple[float, float]] = []
            for instant, into_service in changes:
                if in_service and not into_service:
                    pieces.append((piece_start, instant))
                elif not in_service and into_service:
                    piece_start = instant
                in_service = into_service
            if in_service:
                pieces.append((piece_start, float("inf")))
            for start, end in windows:
                if not any(ps <= start and end < pe for ps, pe in pieces):
                    raise ValueError(
                        f"whole-DSLAM outage [{start}, {end}] overlaps churn of "
                        f"gateway {gateway_id}, which must be in service "
                        f"throughout the window"
                    )

    # ------------------------------------------------------------------
    @property
    def is_empty(self) -> bool:
        return not self.events

    def has_gateway_churn(self) -> bool:
        """Whether any event (incl. broadcasts) flips gateway service state."""
        return any(e.kind.is_gateway for e in self.events)

    def gateway_ids(self) -> Set[int]:
        """Every gateway mentioned *individually* by the timeline."""
        return {e.gateway_id for e in self.events if e.gateway_id is not None}

    def client_ids(self) -> Set[int]:
        """Every client mentioned by the timeline."""
        return {e.client_id for e in self.events if e.client_id is not None}

    def initially_absent(self) -> Tuple[Set[int], Set[int]]:
        """``(gateways, clients)`` absent from t=0 (first event is a join)."""
        seen: Set[Tuple[bool, int]] = set()
        gateways: Set[int] = set()
        clients: Set[int] = set()
        for event in self.events:
            if event.kind.is_broadcast:
                continue
            is_gateway = event.kind.is_gateway
            entity = event.gateway_id if is_gateway else event.client_id
            key = (is_gateway, entity)
            if key in seen:
                continue
            seen.add(key)
            if event.kind is ChurnKind.GATEWAY_JOIN:
                gateways.add(entity)
            elif event.kind is ChurnKind.CLIENT_JOIN:
                clients.add(entity)
        return gateways, clients

    def compile(self, num_gateways: Optional[int] = None) -> List[ChurnAction]:
        """The primitive action plan, sorted by instant (ties in event order).

        A ``GATEWAY_FAIL`` expands into an out-of-service action at its
        instant plus an into-service recovery action ``duration_s`` later.
        A ``DSLAM_FAIL`` broadcast expands the same way *per gateway* of
        the concrete population, so ``num_gateways`` is required whenever
        the timeline contains one.
        """
        actions: List[ChurnAction] = []
        seq = 0
        for event in self.events:
            if event.kind is ChurnKind.DSLAM_FAIL:
                if num_gateways is None:
                    raise ValueError(
                        "compile() needs num_gateways to expand dslam-fail events"
                    )
                recovery = event.at_s + (event.duration_s or 0.0)
                for gateway_id in range(num_gateways):
                    actions.append(ChurnAction(
                        event.at_s, seq, event.kind, gateway_id, False,
                    ))
                    seq += 1
                for gateway_id in range(num_gateways):
                    actions.append(ChurnAction(
                        recovery, seq, event.kind, gateway_id, True,
                    ))
                    seq += 1
                continue
            if event.kind is ChurnKind.GATEWAY_JOIN:
                actions.append(ChurnAction(event.at_s, seq, event.kind, event.gateway_id, True))
            elif event.kind is ChurnKind.GATEWAY_LEAVE:
                actions.append(ChurnAction(event.at_s, seq, event.kind, event.gateway_id, False))
            elif event.kind is ChurnKind.GATEWAY_FAIL:
                actions.append(ChurnAction(event.at_s, seq, event.kind, event.gateway_id, False))
                seq += 1
                actions.append(ChurnAction(
                    event.at_s + (event.duration_s or 0.0), seq, event.kind,
                    event.gateway_id, True,
                ))
            elif event.kind is ChurnKind.CLIENT_JOIN:
                actions.append(ChurnAction(event.at_s, seq, event.kind, event.client_id, True))
            else:
                actions.append(ChurnAction(event.at_s, seq, event.kind, event.client_id, False))
            seq += 1
        actions.sort(key=lambda action: (action.at_s, action.seq))
        return actions

    def validate_against(self, num_gateways: int, client_ids: Sequence[int]) -> None:
        """Check every referenced entity exists in the scenario."""
        for gateway_id in self.gateway_ids():
            if not 0 <= gateway_id < num_gateways:
                raise ValueError(
                    f"churn timeline references gateway {gateway_id}, but the "
                    f"scenario has gateways 0..{num_gateways - 1}"
                )
        known_clients = set(client_ids)
        for client_id in self.client_ids():
            if client_id not in known_clients:
                raise ValueError(
                    f"churn timeline references unknown client {client_id}"
                )

    def canonical(self) -> List[List[object]]:
        """Digest-stable rendering of the whole timeline."""
        return [event.canonical() for event in self.events]


#: The static deployment of the paper: nothing ever joins or leaves.
EMPTY_TIMELINE = ChurnTimeline()


# ----------------------------------------------------------------------
# Named churn patterns: deterministic builders parameterised by the
# scenario's population, duration and seed.  The sweep catalog inlines the
# *built* timeline into the run digest, so pattern edits invalidate caches
# according to the physics, not the pattern name.
# ----------------------------------------------------------------------
def _pick(rng, population: int, count: int) -> List[int]:
    return sorted(int(x) for x in rng.choice(population, size=count, replace=False))


def _midday_dropout(num_gateways, num_clients, duration_s, seed) -> ChurnTimeline:
    """A quarter of the gateways fail transiently around midday, staggered."""
    import numpy as np

    rng = np.random.default_rng(seed + 101)
    victims = _pick(rng, num_gateways, max(1, num_gateways // 4))
    start = duration_s / 3.0
    outage = max(600.0, duration_s / 8.0)
    return ChurnTimeline(tuple(
        ChurnEvent(
            at_s=start + 120.0 * index,
            kind=ChurnKind.GATEWAY_FAIL,
            gateway_id=gateway_id,
            duration_s=outage,
        )
        for index, gateway_id in enumerate(victims)
    ))


def _evening_expansion(num_gateways, num_clients, duration_s, seed) -> ChurnTimeline:
    """A staged build-out: new gateways power on at half-trace, then new
    subscribers arrive shortly after."""
    import numpy as np

    rng = np.random.default_rng(seed + 211)
    new_gateways = _pick(rng, num_gateways, max(1, num_gateways // 5))
    new_clients = _pick(rng, num_clients, max(1, num_clients // 10))
    events = [
        ChurnEvent(at_s=duration_s * 0.5, kind=ChurnKind.GATEWAY_JOIN, gateway_id=g)
        for g in new_gateways
    ] + [
        ChurnEvent(at_s=duration_s * 0.55, kind=ChurnKind.CLIENT_JOIN, client_id=c)
        for c in new_clients
    ]
    return ChurnTimeline(tuple(events))


def _subscriber_churn(num_gateways, num_clients, duration_s, seed) -> ChurnTimeline:
    """Subscribers cancel mid-trace while a disjoint batch signs up, plus a
    single gateway decommissioning."""
    import numpy as np

    rng = np.random.default_rng(seed + 307)
    shuffled = [int(x) for x in rng.permutation(num_clients)]
    leavers = sorted(shuffled[: max(1, num_clients * 15 // 100)])
    joiners = sorted(shuffled[len(leavers): len(leavers) + max(1, num_clients // 10)])
    decommissioned = int(rng.integers(num_gateways))
    events = [
        ChurnEvent(at_s=duration_s * 0.4, kind=ChurnKind.CLIENT_LEAVE, client_id=c)
        for c in leavers
    ] + [
        ChurnEvent(at_s=duration_s * 0.5, kind=ChurnKind.CLIENT_JOIN, client_id=c)
        for c in joiners
    ] + [
        ChurnEvent(
            at_s=duration_s * 0.6, kind=ChurnKind.GATEWAY_LEAVE,
            gateway_id=decommissioned,
        )
    ]
    return ChurnTimeline(tuple(events))


def _dslam_outage(num_gateways, num_clients, duration_s, seed) -> ChurnTimeline:
    """One correlated whole-DSLAM outage: power fails at a seeded instant
    in the middle third of the trace and every gateway recovers together
    after the repair window."""
    import numpy as np

    rng = np.random.default_rng(seed + 401)
    start = duration_s * (1.0 / 3.0 + float(rng.uniform(0.0, 1.0)) / 6.0)
    outage = max(900.0, duration_s / 8.0)
    return ChurnTimeline((
        ChurnEvent(at_s=start, kind=ChurnKind.DSLAM_FAIL, duration_s=outage),
    ))


#: Named pattern builders: ``f(num_gateways, num_clients, duration_s, seed)``.
CHURN_PATTERNS: Dict[str, object] = {
    "none": lambda num_gateways, num_clients, duration_s, seed: EMPTY_TIMELINE,
    "midday-dropout": _midday_dropout,
    "evening-expansion": _evening_expansion,
    "subscriber-churn": _subscriber_churn,
    "dslam-outage": _dslam_outage,
}


def build_churn(
    name: str, *, num_gateways: int, num_clients: int, duration_s: float, seed: int
) -> ChurnTimeline:
    """Materialise a named churn pattern for a concrete deployment."""
    try:
        builder = CHURN_PATTERNS[name]
    except KeyError:
        raise KeyError(
            f"unknown churn pattern {name!r}; known: {', '.join(CHURN_PATTERNS)}"
        ) from None
    return builder(num_gateways, num_clients, duration_s, seed)


def churn_pattern_names() -> List[str]:
    """Registered churn pattern names, in registration order."""
    return list(CHURN_PATTERNS)

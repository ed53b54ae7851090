"""Named schemes of the evaluation (Sec. 5.1, "Algorithms for comparison").

Each :class:`SchemeConfig` tells the simulator how to behave along three
axes: whether gateways may sleep, how traffic is aggregated (not at all,
with BH2, or with the centralised optimal), and what switching capability
exists at the HDF.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field, fields, replace
from typing import Dict, List, Optional

from repro.access.soi import SoIConfig
from repro.core.bh2 import BH2Config


class AggregationKind(enum.Enum):
    """How user traffic is aggregated onto gateways."""

    NONE = "none"
    BH2 = "bh2"
    OPTIMAL = "optimal"


class SwitchingKind(enum.Enum):
    """HDF switching capability used by a scheme."""

    NONE = "none"
    KSWITCH = "kswitch"
    FULL = "full"


@dataclass(frozen=True)
class SchemeConfig:
    """Complete behavioural description of one evaluated scheme."""

    name: str
    sleep_enabled: bool
    aggregation: AggregationKind
    switching: SwitchingKind
    bh2: BH2Config = field(default_factory=BH2Config)
    soi: SoIConfig = field(default_factory=SoIConfig)
    #: Period of the centralised optimal recomputation (seconds).
    optimal_period_s: float = 60.0
    #: Utilisation cap q of the optimal formulation.
    optimal_max_utilization: float = 1.0
    #: The optimal scheme is an idealised upper bound: gateways wake and
    #: sleep instantaneously and flows migrate with zero downtime.
    idealized_transitions: bool = False
    #: Watt-aware aggregation (repro.wattopt): the centralised solver
    #: minimises marginal online watts instead of gateway count, and BH2
    #: terminals weigh candidates by their generation's efficiency.  On
    #: the homogeneous default fleet this is behaviourally identical to
    #: the count objective (and omitted from sweep digests there).
    watt_aware: bool = False

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("scheme needs a name")
        if self.optimal_period_s <= 0:
            raise ValueError("optimal_period_s must be positive")

    @property
    def uses_run_seed(self) -> bool:
        """Whether the run seed can change this scheme's trajectory.

        The kernel's only seeded draw is each BH2 terminal's generator,
        seeded from the run seed (its decision offsets and random gateway
        picks).  Every other scheme
        repeats bit for bit under any run seed, so a sweep runs it once
        per spec, and :class:`~repro.simulation.runner.ExperimentRunner`
        once per comparison, and both reuse that trajectory for its later
        repetitions.  A scheme that draws from the run seed must return
        True here.
        """
        return self.aggregation is AggregationKind.BH2

    @property
    def trajectory_key(self) -> Optional[tuple]:
        """What fixes this scheme's gateway/flow trajectory, or ``None``.

        The HDF switch only re-terminates lines onto line cards, which
        the rest of the kernel never reads, so schemes that differ only
        in name and switching follow one trajectory and differ only in
        line cards and energy.  The key is every field but those two; a
        scheme that reads the run seed has none, since its repetitions
        and switch variants draw different seeds.  One kernel pass serves
        every switch model of a key (:func:`~repro.simulation.runner.run_scheme`),
        in a sweep and in a comparison alike.  A field that only the line
        side reads must stay out of the key.
        """
        if self.uses_run_seed:
            return None
        return tuple(
            getattr(self, spec.name)
            for spec in fields(self)
            if spec.name not in ("name", "switching")
        )

    def with_name(self, name: str) -> "SchemeConfig":
        """A renamed copy (useful for ablation variants)."""
        return replace(self, name=name)

    def canonical(self) -> Dict[str, object]:
        """Digest-relevant scheme payload.

        ``watt_aware=False`` is omitted so every pre-wattopt scheme digest
        — and therefore every cached sweep store — stays valid.
        """
        from repro.sweep.store import canonicalize  # local: avoid a cycle

        payload = dict(canonicalize(self))
        if not payload.get("watt_aware"):
            payload.pop("watt_aware", None)
        return payload


def no_sleep() -> SchemeConfig:
    """Today's operation: nothing ever sleeps (the savings baseline)."""
    return SchemeConfig(
        name="no-sleep",
        sleep_enabled=False,
        aggregation=AggregationKind.NONE,
        switching=SwitchingKind.NONE,
    )


def soi() -> SchemeConfig:
    """Plain Sleep-on-Idle: users stay on their home gateways."""
    return SchemeConfig(
        name="SoI",
        sleep_enabled=True,
        aggregation=AggregationKind.NONE,
        switching=SwitchingKind.NONE,
    )


def soi_kswitch() -> SchemeConfig:
    """Sleep-on-Idle plus k-switches at the HDF."""
    return SchemeConfig(
        name="SoI+k-switch",
        sleep_enabled=True,
        aggregation=AggregationKind.NONE,
        switching=SwitchingKind.KSWITCH,
    )


def soi_full_switch() -> SchemeConfig:
    """Sleep-on-Idle plus an idealised full switch (used in Sec. 5.2.3)."""
    return SchemeConfig(
        name="SoI+full-switch",
        sleep_enabled=True,
        aggregation=AggregationKind.NONE,
        switching=SwitchingKind.FULL,
    )


def bh2_kswitch(backup: int = 1) -> SchemeConfig:
    """BH2 aggregation plus k-switches (the paper's headline scheme)."""
    suffix = "" if backup == 1 else f" (backup={backup})"
    return SchemeConfig(
        name=f"BH2+k-switch{suffix}",
        sleep_enabled=True,
        aggregation=AggregationKind.BH2,
        switching=SwitchingKind.KSWITCH,
        bh2=BH2Config(backup=backup),
    )


def bh2_no_backup_kswitch() -> SchemeConfig:
    """BH2 without backup gateways (fairness comparison of Fig. 9b)."""
    return SchemeConfig(
        name="BH2 w/o backup+k-switch",
        sleep_enabled=True,
        aggregation=AggregationKind.BH2,
        switching=SwitchingKind.KSWITCH,
        bh2=BH2Config(backup=0),
    )


def bh2_full_switch(backup: int = 1) -> SchemeConfig:
    """BH2 aggregation plus a full switch (used in Sec. 5.2.3)."""
    return SchemeConfig(
        name="BH2+full-switch",
        sleep_enabled=True,
        aggregation=AggregationKind.BH2,
        switching=SwitchingKind.FULL,
        bh2=BH2Config(backup=backup),
    )


def optimal(backup: int = 0) -> SchemeConfig:
    """Centralised optimal aggregation + full switching, idealised transitions.

    Backup gateways exist only to allow *smooth hand-offs* for the
    distributed BH2 terminals; the idealised optimal migrates flows with
    zero downtime every minute, so it does not need them (``backup=0``).
    """
    return SchemeConfig(
        name="Optimal",
        sleep_enabled=True,
        aggregation=AggregationKind.OPTIMAL,
        switching=SwitchingKind.FULL,
        bh2=BH2Config(backup=backup),
        idealized_transitions=True,
    )


def optimal_watts(backup: int = 0) -> SchemeConfig:
    """Watt-objective centralised aggregation (the watt twin of *Optimal*).

    Identical to :func:`optimal` except the solver minimises the fleet's
    marginal online watts instead of the online-gateway count.  On the
    homogeneous default fleet the two objectives coincide and the
    trajectories are bit-identical (enforced by tests).
    """
    return replace(optimal(backup=backup), name="optimal-watts", watt_aware=True)


def bh2_watts(backup: int = 1) -> SchemeConfig:
    """Efficiency-aware BH2 (the watt twin of *BH2+k-switch*).

    Terminals still follow the BH2 thresholds, but among eligible online
    candidates they weigh loads by the candidate generation's efficiency,
    steering hitch-hikers toward low-watt hardware.  On the homogeneous
    default fleet every weight is 1 and the scheme is bit-identical to
    BH2+k-switch.
    """
    return replace(bh2_kswitch(backup=backup), name="bh2-watts", watt_aware=True)


def optimal_watts_no_sleep() -> SchemeConfig:
    """Control: watt-objective aggregation with sleeping disabled.

    Gateways never power down, so consolidation cannot save gateway watts;
    the pair (this, :func:`optimal_watts`) isolates how much of the watt
    scheme's saving comes from sleeping versus routing.
    """
    return replace(
        optimal_watts(),
        name="optimal-watts/no-sleep",
        sleep_enabled=False,
        idealized_transitions=False,
    )


def bh2_watts_no_sleep() -> SchemeConfig:
    """Control: efficiency-aware BH2 with sleeping disabled."""
    return replace(bh2_watts(), name="bh2-watts/no-sleep", sleep_enabled=False)


def standard_schemes() -> List[SchemeConfig]:
    """The four schemes of Fig. 6 plus the baseline, in plotting order."""
    return [no_sleep(), soi(), soi_kswitch(), bh2_kswitch(), optimal()]


def watt_schemes() -> List[SchemeConfig]:
    """The watt-aware schemes beside their count-minimising twins.

    The order pairs each twin with its watt variant so sweep tables read
    as direct comparisons; ``no-sleep`` anchors the absolute baseline.
    """
    return [no_sleep(), optimal(), optimal_watts(), bh2_kswitch(), bh2_watts()]


def all_schemes() -> Dict[str, SchemeConfig]:
    """Every named scheme, keyed by name."""
    schemes = [
        no_sleep(),
        soi(),
        soi_kswitch(),
        soi_full_switch(),
        bh2_kswitch(),
        bh2_no_backup_kswitch(),
        bh2_full_switch(),
        optimal(),
        optimal_watts(),
        bh2_watts(),
        optimal_watts_no_sleep(),
        bh2_watts_no_sleep(),
    ]
    return {s.name: s for s in schemes}

"""Declarative scenario catalog: named families of evaluation scenarios.

A :class:`ScenarioSpec` is a flat, hashable description of one deployment
point — population, duration, overlap density, capacity mix, diurnal
shape.  A :class:`ScenarioFamily` bundles a base spec with a parameter
grid; :meth:`ScenarioFamily.expand` takes the cartesian product of the
grid axes and yields one labelled spec per grid point.  Specs build
concrete :class:`~repro.topology.scenario.Scenario` objects on demand.

The registry ships the paper's deployment plus the regimes related work
says are interesting: dense urban edge deployments with strong diurnal
swings (GATE: Greening At The Edge), sparse low-cost rural deployments
(Designing Low Cost and Energy Efficient Access Networks for the
Developing World), flash-crowd arrival bursts, and a
backhaul × overlap sensitivity grid.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, fields, replace
from typing import Dict, List, Optional, Sequence, Tuple

from repro.fleet.churn import CHURN_PATTERNS, ChurnTimeline, build_churn
from repro.fleet.profile import FLEETS, HOMOGENEOUS, FleetProfile
from repro.topology.scenario import (
    DslamConfig,
    Scenario,
    WirelessParameters,
    build_default_scenario,
)
from repro.traces.models import WirelessTrace

#: Named diurnal profiles selectable by :attr:`ScenarioSpec.profile`.
#: ``"default"`` keeps the generator's office/residential mix.  Each
#: profile has 24 hourly weights normalised to 1.0 at the busiest hour.
DIURNAL_PROFILES: Dict[str, Optional[Tuple[float, ...]]] = {
    "default": None,
    # Office hours: near-empty nights, sharp 08:00 ramp-up, 09:00-17:00
    # plateau, evening drain — the strong swing edge deployments see.
    "office": (
        0.02, 0.015, 0.01, 0.01, 0.01, 0.015, 0.05, 0.18,
        0.55, 0.85, 0.95, 0.97, 0.90, 0.95, 1.00, 0.97,
        0.88, 0.60, 0.30, 0.18, 0.12, 0.08, 0.05, 0.03,
    ),
    # Flash crowd: a modest daytime baseline with a sharp arrival burst
    # at 19:00-21:00 (a live event), stressing wake-up responsiveness.
    "flash-crowd": (
        0.10, 0.08, 0.06, 0.05, 0.05, 0.06, 0.08, 0.12,
        0.16, 0.20, 0.22, 0.24, 0.25, 0.26, 0.28, 0.30,
        0.32, 0.35, 0.45, 0.80, 1.00, 0.95, 0.40, 0.18,
    ),
    # Weekend: slow late mornings, a long sustained afternoon, and an
    # evening peak — the flat-ish home-heavy load of non-working days.
    "weekend": (
        0.30, 0.22, 0.15, 0.10, 0.08, 0.08, 0.10, 0.15,
        0.25, 0.40, 0.55, 0.65, 0.70, 0.72, 0.70, 0.68,
        0.70, 0.75, 0.82, 0.92, 1.00, 0.90, 0.65, 0.45,
    ),
}


@dataclass(frozen=True)
class ScenarioSpec:
    """One concrete deployment point of the evaluation space.

    ``label`` is presentation-only; everything else is physical and feeds
    the content digest of :func:`repro.sweep.store.run_digest`, so two
    specs that describe the same deployment share cached results even if
    they come from different families.
    """

    label: str = "paper-default"
    num_clients: int = 272
    num_gateways: int = 40
    duration_s: float = 24 * 3600.0
    seed: int = 2011
    #: Mean overlapping networks in range (the paper's measured 5.6).
    mean_networks_in_range: float = 5.6
    #: When set, switches to the binomial connectivity model of Fig. 10
    #: with this mean number of available gateways per user.
    density: Optional[float] = None
    #: Backhaul capacity multiplier applied to the 6 Mbps ADSL default.
    backhaul_scale: float = 1.0
    num_line_cards: int = 4
    ports_per_card: int = 12
    #: Key into :data:`DIURNAL_PROFILES`.
    profile: str = "default"
    #: Key into :data:`repro.fleet.profile.FLEETS` — the gateway-generation
    #: mix of the deployment ("homogeneous" is the paper's uniform fleet).
    fleet: str = "homogeneous"
    #: Key into :data:`repro.fleet.churn.CHURN_PATTERNS` — the mid-trace
    #: churn pattern ("none" is the paper's static deployment).
    churn: str = "none"
    #: Extra keyword overrides for
    #: :class:`~repro.traces.synthetic.SyntheticTraceConfig`, as a sorted
    #: tuple of ``(field, value)`` pairs so the spec stays hashable.
    trace_overrides: Tuple[Tuple[str, float], ...] = ()

    def __post_init__(self) -> None:
        if self.profile not in DIURNAL_PROFILES:
            raise ValueError(
                f"unknown diurnal profile {self.profile!r}; "
                f"known: {', '.join(sorted(DIURNAL_PROFILES))}"
            )
        if self.fleet not in FLEETS:
            raise ValueError(
                f"unknown fleet profile {self.fleet!r}; "
                f"known: {', '.join(sorted(FLEETS))}"
            )
        if self.churn not in CHURN_PATTERNS:
            raise ValueError(
                f"unknown churn pattern {self.churn!r}; "
                f"known: {', '.join(sorted(CHURN_PATTERNS))}"
            )
        if self.backhaul_scale <= 0:
            raise ValueError("backhaul_scale must be positive")
        if self.num_gateways > self.num_line_cards * self.ports_per_card:
            raise ValueError("num_gateways exceeds the DSLAM port count")

    def fleet_profile(self) -> FleetProfile:
        """The resolved gateway-generation mix of this spec."""
        return FLEETS[self.fleet]

    def churn_timeline(self) -> ChurnTimeline:
        """The materialised churn timeline of this spec (deterministic)."""
        return build_churn(
            self.churn,
            num_gateways=self.num_gateways,
            num_clients=self.num_clients,
            duration_s=self.duration_s,
            seed=self.seed,
        )

    def canonical(self) -> Dict[str, object]:
        """The digest-relevant parameters (everything except the label).

        The diurnal profile is inlined as its 24 weight values rather than
        its registry name, so editing a named profile (or registering the
        same weights under another name) changes — or preserves — cached
        digests according to the physics, not the label.  Fleet mixes and
        churn patterns are inlined the same way — as generation physics and
        materialised event lists — and *omitted entirely* for the
        homogeneous/static defaults, so pre-fleet digests stay valid.
        """
        payload = {f.name: getattr(self, f.name) for f in fields(self) if f.name != "label"}
        del payload["profile"]
        weights = DIURNAL_PROFILES[self.profile]
        payload["diurnal_profile"] = list(weights) if weights is not None else None
        payload["trace_overrides"] = [list(pair) for pair in self.trace_overrides]
        del payload["fleet"]
        del payload["churn"]
        fleet_canonical = self.fleet_profile().canonical()
        if fleet_canonical != HOMOGENEOUS.canonical():
            payload["fleet"] = fleet_canonical
        churn_timeline = self.churn_timeline()
        if not churn_timeline.is_empty:
            payload["churn"] = churn_timeline.canonical()
        return payload

    def trace_key(self) -> Tuple[object, ...]:
        """The fields the synthetic trace is generated from.

        Specs with equal keys generate the same trace; everything else —
        overlap topology, backhaul, DSLAM layout, fleet and churn — is
        built around it by :meth:`build`.
        """
        return (
            self.seed,
            self.num_clients,
            self.num_gateways,
            self.duration_s,
            self.profile,
            self.trace_overrides,
        )

    def build(self, trace: Optional[WirelessTrace] = None) -> Scenario:
        """Materialise the spec into a simulator-ready scenario.

        ``trace``, when given, is used instead of generating one; it must
        come from a spec with the same :meth:`trace_key`.
        """
        overrides = dict(self.trace_overrides)
        diurnal = DIURNAL_PROFILES[self.profile]
        if diurnal is not None:
            overrides["diurnal_profile"] = diurnal
        wireless = WirelessParameters()
        if self.backhaul_scale != 1.0:
            wireless = wireless.scaled(self.backhaul_scale)
        fleet_profile = self.fleet_profile()
        churn_timeline = self.churn_timeline()
        return build_default_scenario(
            seed=self.seed,
            num_clients=self.num_clients,
            num_gateways=self.num_gateways,
            duration=self.duration_s,
            mean_networks_in_range=self.mean_networks_in_range,
            dslam=DslamConfig(
                num_line_cards=self.num_line_cards, ports_per_card=self.ports_per_card
            ),
            density_override=self.density,
            wireless=wireless,
            fleet=(
                fleet_profile
                if fleet_profile.canonical() != HOMOGENEOUS.canonical()
                else None
            ),
            churn=churn_timeline if not churn_timeline.is_empty else None,
            trace=trace,
            **overrides,
        )


def _format_value(value: object) -> str:
    if isinstance(value, float):
        return f"{value:g}"
    return str(value)


@dataclass(frozen=True)
class ScenarioFamily:
    """A named base spec plus a parameter grid to expand over."""

    name: str
    description: str
    base: ScenarioSpec
    #: Grid axes: ``(spec field name, values)`` pairs, expanded as a
    #: cartesian product in declaration order.
    grid: Tuple[Tuple[str, Tuple[object, ...]], ...] = ()
    #: Scheme names (keys of :func:`repro.core.schemes.all_schemes`) this
    #: family is designed to compare.  Empty means "whatever the sweep
    #: runs by default" (the Fig. 6 set); an explicit ``--schemes`` always
    #: overrides.  Lets a family like ``watt-aware`` cross its scenarios
    #: with the watt schemes *and* their count twins without every caller
    #: having to spell the pairing out.
    scheme_names: Tuple[str, ...] = ()

    def __post_init__(self) -> None:
        spec_fields = {f.name for f in fields(ScenarioSpec)}
        for axis, values in self.grid:
            if axis not in spec_fields:
                raise ValueError(f"grid axis {axis!r} is not a ScenarioSpec field")
            if not values:
                raise ValueError(f"grid axis {axis!r} has no values")
        if self.scheme_names:
            from repro.core.schemes import all_schemes  # local: keep import light

            known = all_schemes()
            for scheme_name in self.scheme_names:
                if scheme_name not in known:
                    raise ValueError(
                        f"unknown scheme {scheme_name!r} in family {self.name!r}; "
                        f"known: {', '.join(known)}"
                    )

    def default_schemes(self):
        """The family's scheme configs (None when it declares no preference)."""
        if not self.scheme_names:
            return None
        from repro.core.schemes import all_schemes

        known = all_schemes()
        return [known[name] for name in self.scheme_names]

    def expand(self) -> List[ScenarioSpec]:
        """One labelled spec per grid point (just the base if no grid)."""
        if not self.grid:
            return [replace(self.base, label=self.name)]
        axes = [axis for axis, _values in self.grid]
        specs = []
        for point in itertools.product(*(values for _axis, values in self.grid)):
            suffix = ",".join(
                f"{axis}={_format_value(value)}" for axis, value in zip(axes, point)
            )
            specs.append(
                replace(self.base, label=f"{self.name}[{suffix}]", **dict(zip(axes, point)))
            )
        return specs


#: The global family registry, keyed by family name.
FAMILIES: Dict[str, ScenarioFamily] = {}


def register_family(family_: ScenarioFamily) -> ScenarioFamily:
    """Register a family under its name (overwriting any previous one)."""
    FAMILIES[family_.name] = family_
    return family_


def family(name: str) -> ScenarioFamily:
    """Look a family up by name."""
    try:
        return FAMILIES[name]
    except KeyError:
        raise KeyError(
            f"unknown scenario family {name!r}; known families: {', '.join(family_names())}"
        ) from None


def family_names() -> List[str]:
    """Registered family names, in registration order."""
    return list(FAMILIES)


def resolve_families(names: Optional[Sequence[str]] = None) -> List[ScenarioFamily]:
    """Families for a list of names (all registered families when omitted)."""
    if names is None:
        return [FAMILIES[name] for name in FAMILIES]
    return [family(name) for name in names]


# ----------------------------------------------------------------------
# The shipped catalog.
# ----------------------------------------------------------------------
register_family(ScenarioFamily(
    name="paper-default",
    description="The deployment of Sec. 5.1: 272 clients on 40 gateways, "
                "24 h, measured 5.6-network overlap, 6 Mbps ADSL backhaul.",
    base=ScenarioSpec(),
))

register_family(ScenarioFamily(
    name="dense-urban",
    description="Dense edge deployment (GATE-style): more clients per "
                "gateway and high overlap, so aggregation has many "
                "candidate gateways to consolidate onto.",
    base=ScenarioSpec(num_clients=320, num_gateways=48, seed=2021),
    grid=(("density", (6.0, 9.0)),),
))

register_family(ScenarioFamily(
    name="sparse-rural",
    description="Sparse low-cost rural deployment (developing-world "
                "access): few neighbours in range and a thin, cheap "
                "backhaul, probing where aggregation stops paying off.",
    base=ScenarioSpec(
        num_clients=96,
        num_gateways=24,
        seed=2031,
        backhaul_scale=0.5,
        trace_overrides=(("peak_online_probability", 0.3),),
    ),
    grid=(("density", (1.5, 2.5)),),
))

register_family(ScenarioFamily(
    name="diurnal-office",
    description="Office-hours diurnal swing: near-empty nights and a "
                "sharp 08:00 ramp, the regime where sleeping pays most.",
    base=ScenarioSpec(seed=2041, profile="office"),
))

register_family(ScenarioFamily(
    name="flash-crowd",
    description="Evening flash-crowd arrival burst on a quiet baseline, "
                "stressing wake-up responsiveness and backup headroom.",
    base=ScenarioSpec(seed=2051, profile="flash-crowd"),
))

register_family(ScenarioFamily(
    name="backhaul-sensitivity",
    description="Sensitivity grid over backhaul capacity and overlap "
                "density on a half-size population.",
    base=ScenarioSpec(num_clients=136, num_gateways=20, seed=2061),
    grid=(
        ("backhaul_scale", (0.5, 1.0, 2.0)),
        ("mean_networks_in_range", (3.0, 5.6)),
    ),
))

register_family(ScenarioFamily(
    name="mixed-fleet",
    description="Heterogeneous gateway generations (legacy 9 W, efficient "
                "5 W, multi-level deep-sleep): where the savings move when "
                "the fleet is no longer uniform hardware.",
    base=ScenarioSpec(num_clients=136, num_gateways=20, seed=2071),
    grid=(("fleet", ("legacy-efficient", "tri-mix", "efficient-only")),),
))

register_family(ScenarioFamily(
    name="gateway-churn",
    description="Mid-trace fleet dynamics: transient gateway failures, a "
                "staged build-out of new gateways and subscribers, and "
                "subscriber churn with a decommissioning.",
    base=ScenarioSpec(num_clients=136, num_gateways=20, seed=2081),
    grid=(("churn", ("midday-dropout", "evening-expansion", "subscriber-churn")),),
))

register_family(ScenarioFamily(
    name="weekend-weekday",
    description="Working-day office swing vs. the flat home-heavy weekend "
                "load: how much the sleeping payoff depends on the day "
                "shape.",
    base=ScenarioSpec(seed=2091),
    grid=(("profile", ("office", "weekend")),),
))

register_family(ScenarioFamily(
    name="watt-aware",
    description="Watt-objective schemes against their count-minimising "
                "twins over mixed gateway generations: how many kWh the "
                "count proxy leaves on the table once hardware differs.",
    base=ScenarioSpec(num_clients=136, num_gateways=20, seed=2101),
    grid=(("fleet", ("legacy-efficient", "tri-mix", "efficient-only")),),
    scheme_names=("no-sleep", "Optimal", "optimal-watts", "BH2+k-switch", "bh2-watts"),
))

register_family(ScenarioFamily(
    name="correlated-outage",
    description="Correlated whole-DSLAM outage (flaky-power access regimes: "
                "GATE edge fleets, developing-world deployments) against the "
                "independent midday-dropout failures: what sleeping schemes "
                "do when every gateway fails and recovers together.",
    base=ScenarioSpec(
        num_clients=12, num_gateways=4, duration_s=14400.0, seed=79
    ),
    grid=(("churn", ("midday-dropout", "dslam-outage")),),
))

register_family(ScenarioFamily(
    name="smoke",
    description="Tiny half-hour deployment for CI smoke runs and tests.",
    base=ScenarioSpec(num_clients=12, num_gateways=4, duration_s=1800.0, seed=71),
))

register_family(ScenarioFamily(
    name="smoke-watt",
    description="Smoke-scale mixed fleet crossing the watt-objective "
                "schemes with their count twins, so the CI regression "
                "gate covers the watt metrics without a full sweep.  Four "
                "hours (unlike smoke's empty half hour) so flows actually "
                "complete and the served-demand axis of the watt Pareto "
                "front is non-degenerate.",
    base=ScenarioSpec(
        label="smoke-watt",
        num_clients=12,
        num_gateways=4,
        duration_s=14400.0,
        seed=73,
        fleet="tri-mix",
    ),
    scheme_names=("no-sleep", "Optimal", "optimal-watts", "BH2+k-switch", "bh2-watts"),
))

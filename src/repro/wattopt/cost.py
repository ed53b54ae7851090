"""Per-gateway watt costs: what keeping each gateway online actually buys.

The count objective of Eq. (1) treats every gateway as interchangeable.
On a heterogeneous fleet it is not: keeping a legacy 9 W box online costs
nearly twice the watts of an efficient 5 W one.  :class:`WattCostModel`
maps every gateway of a deployment to the *marginal* power of keeping it
online instead of asleep::

    marginal_w(g) = active_w(g) - sleep_w(g) + modem_w

``modem_w`` is the per-line ISP modem that powers up with the gateway (it
is the same for every line, so it never changes which gateway is cheaper —
it only keeps the absolute objective honest).  The sleeping draw is
subtracted because an in-service gateway pays its standby power whether or
not the solver selects it; only the active-minus-standby difference is a
decision the aggregation scheme controls.

The default model — built from the homogeneous 9 W fleet — assigns every
gateway the same marginal cost, making the watt objective a positive
multiple of the gateway count: count minimisation is recovered *exactly*
as a special case (the watt solvers delegate to the count solvers on
uniform models, so trajectories are bit-identical).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Optional, Tuple

from repro.fleet.profile import FleetProfile
from repro.power.models import AccessNetworkPowerModel, DEFAULT_POWER_MODEL


@dataclass(frozen=True)
class WattCostModel:
    """Immutable per-gateway online/standby draws for one deployment.

    ``online_w[g]`` / ``standby_w[g]`` are the active and sleeping draws of
    gateway ``g``; ``modem_w`` is the per-line ISP modem draw charged while
    the gateway is powered.  ``generation[g]`` and ``generation_names``
    carry the fleet-mix provenance for reporting (presentation only — the
    costs are what the solvers consume).
    """

    online_w: Tuple[float, ...]
    standby_w: Tuple[float, ...]
    modem_w: float = 0.0
    generation: Tuple[int, ...] = ()
    generation_names: Tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if not self.online_w:
            raise ValueError("cost model needs at least one gateway")
        if len(self.online_w) != len(self.standby_w):
            raise ValueError("online_w and standby_w must have equal length")
        if self.generation and len(self.generation) != len(self.online_w):
            raise ValueError("generation must have one entry per gateway")
        if any(w < 0 for w in self.online_w) or any(w < 0 for w in self.standby_w):
            raise ValueError("power draws must be non-negative")
        if self.modem_w < 0:
            raise ValueError("modem_w must be non-negative")
        for online, standby in zip(self.online_w, self.standby_w):
            if online - standby + self.modem_w <= 0:
                raise ValueError(
                    "every gateway must have a positive marginal online draw"
                )

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def homogeneous(
        cls,
        num_gateways: int,
        power_model: AccessNetworkPowerModel = DEFAULT_POWER_MODEL,
    ) -> "WattCostModel":
        """The paper's uniform fleet: every gateway is the model's device."""
        device = power_model.gateway
        return cls(
            online_w=(device.active_w,) * num_gateways,
            standby_w=(device.sleep_w,) * num_gateways,
            modem_w=power_model.isp_modem.active_w,
            generation=(0,) * num_gateways,
            generation_names=("default",),
        )

    @classmethod
    def from_fleet(
        cls,
        fleet: Optional[FleetProfile],
        num_gateways: int,
        power_model: AccessNetworkPowerModel = DEFAULT_POWER_MODEL,
    ) -> "WattCostModel":
        """Costs for a deployment's fleet profile.

        ``None`` — or any profile uniform in the power model's own gateway
        device — yields the homogeneous model, so count minimisation is
        recovered exactly on the default fleet.
        """
        if fleet is None or fleet.is_uniform(power_model.gateway):
            return cls.homogeneous(num_gateways, power_model)
        assignment, active_w, sleep_w, _wake_w, _wake_time = fleet.device_arrays(
            num_gateways, default_wake_time_s=0.0
        )
        return cls(
            online_w=tuple(active_w),
            standby_w=tuple(sleep_w),
            modem_w=power_model.isp_modem.active_w,
            generation=tuple(assignment),
            generation_names=tuple(fleet.generation_names),
        )

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    @property
    def num_gateways(self) -> int:
        return len(self.online_w)

    def marginal_w(self, gateway_id: int) -> float:
        """Watts spent keeping ``gateway_id`` online rather than asleep."""
        return self.online_w[gateway_id] - self.standby_w[gateway_id] + self.modem_w

    def marginals(self) -> List[float]:
        """Per-gateway marginal online draws, indexable by gateway id."""
        return [self.marginal_w(g) for g in range(self.num_gateways)]

    @property
    def is_uniform(self) -> bool:
        """Whether every gateway costs the same (the count objective)."""
        marginals = self.marginals()
        return all(m == marginals[0] for m in marginals)

    def watt_objective(self, online: Iterable[int]) -> float:
        """Total marginal watts of an online set (the solver objective).

        Summed in ascending gateway-id order so equal sets always produce
        the identical float.  The solvers rank sets by their own running
        sums; the tests measure the greedy's and the exact solver's online
        sets with this.
        """
        return sum(self.marginal_w(g) for g in sorted(online))

    def max_marginal_w(self) -> float:
        """The costliest single device — the unit of the greedy's gap bound.

        Only the tests read it: they bound the watt greedy's distance from
        :class:`repro.wattopt.solver.ExactWattAggregationSolver` by it.
        """
        return max(self.marginals())

    def bias(self) -> List[float]:
        """Per-gateway preference multipliers for BH2 candidate ranking.

        ``min_marginal / marginal`` — 1.0 for the cheapest generation,
        proportionally smaller for power-hungry ones.  A terminal weighing
        candidate loads by this bias steers hitch-hikers toward efficient
        hardware; on a uniform model every bias is exactly 1.0.
        """
        marginals = self.marginals()
        cheapest = min(marginals)
        return [cheapest / m for m in marginals]

"""Device power profiles and the aggregate access-network power model."""

from __future__ import annotations

import enum
from dataclasses import dataclass, field


class PowerState(enum.Enum):
    """Operating state of a sleep-capable access device."""

    ACTIVE = "active"
    SLEEPING = "sleeping"
    WAKING = "waking"

    @property
    def is_online(self) -> bool:
        """Whether the device can carry traffic in this state."""
        return self is PowerState.ACTIVE


@dataclass(frozen=True)
class DevicePower:
    """Power draw of one device in each operating state (watts).

    Access devices are not energy proportional (Sec. 2.2): the paper
    measures less than 10 % variation across the load range, so a single
    ``active_w`` figure per device is an accurate model.

    ``wake_w`` is the draw during the boot/re-synchronisation period.  The
    default ``wake_w=None`` means *boot at full power*: the waking draw
    falls back to ``active_w`` (the paper's devices have no separate boot
    rail), including when ``active_w`` is overridden from the 9 W default.
    Set ``wake_w`` explicitly for hardware whose boot burst differs from
    its steady active draw (e.g. multi-level deep-sleep devices).
    """

    active_w: float
    sleep_w: float = 0.0
    wake_w: float | None = None

    def __post_init__(self) -> None:
        if self.active_w < 0 or self.sleep_w < 0:
            raise ValueError("power draws must be non-negative")
        if self.wake_w is not None and self.wake_w < 0:
            raise ValueError("wake power must be non-negative")

    @property
    def waking_w(self) -> float:
        """Effective waking draw: ``wake_w`` when set, else the
        ``active_w`` fallback (devices boot at full power)."""
        return self.wake_w if self.wake_w is not None else self.active_w

    def power_in(self, state: PowerState) -> float:
        """Power draw (watts) in a given :class:`PowerState`.

        ``WAKING`` resolves through :attr:`waking_w`, i.e. it falls back to
        ``active_w`` when no explicit ``wake_w`` was configured.
        """
        if state is PowerState.ACTIVE:
            return self.active_w
        if state is PowerState.SLEEPING:
            return self.sleep_w
        return self.wake_w if self.wake_w is not None else self.active_w


@dataclass(frozen=True)
class AccessNetworkPowerModel:
    """Power model of the full access chain for one DSLAM's worth of users.

    The user side of each subscriber is a *gateway* (integrated modem +
    wireless AP + router).  The ISP side has one terminating *modem* per
    line, *line cards* hosting the modems' shared circuitry, and the DSLAM
    *shelf* which is never powered off.
    """

    gateway: DevicePower = field(default_factory=lambda: DevicePower(active_w=9.0, sleep_w=0.0))
    isp_modem: DevicePower = field(default_factory=lambda: DevicePower(active_w=1.0, sleep_w=0.0))
    line_card: DevicePower = field(default_factory=lambda: DevicePower(active_w=98.0, sleep_w=0.0))
    dslam_shelf: DevicePower = field(default_factory=lambda: DevicePower(active_w=21.0, sleep_w=21.0))

    # ------------------------------------------------------------------
    def user_side_power(self, gateways_online: int, gateways_waking: int = 0) -> float:
        """Instantaneous power of the user side (watts)."""
        if min(gateways_online, gateways_waking) < 0:
            raise ValueError("device counts must be non-negative")
        return (
            gateways_online * self.gateway.power_in(PowerState.ACTIVE)
            + gateways_waking * self.gateway.power_in(PowerState.WAKING)
        )

    def isp_side_power(
        self,
        modems_online: int,
        line_cards_online: int,
        modems_waking: int = 0,
        line_cards_waking: int = 0,
    ) -> float:
        """Instantaneous power of the ISP side (watts), shelf included."""
        counts = (modems_online, line_cards_online, modems_waking, line_cards_waking)
        if min(counts) < 0:
            raise ValueError("device counts must be non-negative")
        return (
            modems_online * self.isp_modem.power_in(PowerState.ACTIVE)
            + modems_waking * self.isp_modem.power_in(PowerState.WAKING)
            + line_cards_online * self.line_card.power_in(PowerState.ACTIVE)
            + line_cards_waking * self.line_card.power_in(PowerState.WAKING)
            + self.dslam_shelf.active_w
        )

    def no_sleep_power(self, num_gateways: int, num_line_cards: int) -> float:
        """Power of today's always-on operation (the paper's baseline)."""
        return self.user_side_power(num_gateways) + self.isp_side_power(
            modems_online=num_gateways, line_cards_online=num_line_cards
        )


#: The power model with the paper's measured figures.
DEFAULT_POWER_MODEL = AccessNetworkPowerModel()

#: Number of DSL subscribers world-wide used in the paper's extrapolation.
WORLD_DSL_SUBSCRIBERS = 320_000_000

#: Hours in a (non-leap) year, used for TWh extrapolations.
HOURS_PER_YEAR = 365 * 24


def world_wide_savings_twh(
    saving_fraction: float,
    per_subscriber_power_w: float | None = None,
    model: AccessNetworkPowerModel = DEFAULT_POWER_MODEL,
    ports_per_card: int = 48,
) -> float:
    """Extrapolate a relative saving to all DSL subscribers (TWh per year).

    ``per_subscriber_power_w`` defaults to the always-on per-subscriber power
    implied by the model: one gateway, one ISP modem, a 1/ports share of a
    line card and a 1/1000 share of a shelf.  The paper's own extrapolation
    arrives at roughly 33 TWh/year for a 66 % saving.
    """
    if not 0 <= saving_fraction <= 1:
        raise ValueError("saving_fraction must lie in [0, 1]")
    if per_subscriber_power_w is None:
        per_subscriber_power_w = (
            model.gateway.active_w
            + model.isp_modem.active_w
            + model.line_card.active_w / ports_per_card
            + model.dslam_shelf.active_w / 1000.0
        )
    total_w = per_subscriber_power_w * WORLD_DSL_SUBSCRIBERS * saving_fraction
    return total_w * HOURS_PER_YEAR / 1e12

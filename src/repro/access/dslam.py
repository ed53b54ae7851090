"""DSLAM model: terminating modems, line cards and HDF switching.

The DSLAM hosts one terminating modem per subscriber line; modems are
grouped on line cards whose shared circuitry (~98 W) dominates ISP-side
consumption.  A modem can sleep whenever its line's gateway sleeps, but a
line card can only sleep when *none* of its ports terminates an active
line — which is where the HDF switching of Sec. 4 comes in.

Three switching modes are modelled:

* ``FIXED`` — today's wiring: every line is hard-wired to its port.
* ``KSWITCH`` — banks of k-switches re-terminate lines so active lines are
  packed onto the highest-numbered cards of each batch; a line's port only
  changes while its gateway is asleep or waking (the paper's "switching
  operations happen only when the gateway is being woken-up").
* ``FULL`` — the idealised full switch of the *Optimal* scheme: any line to
  any port, migrations at any time with no disruption.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Set, Tuple

from repro.access.kswitch import KSwitchBank
from repro.topology.scenario import DslamConfig


class SwitchingMode(enum.Enum):
    """HDF switching capability in front of the DSLAM."""

    FIXED = "fixed"
    KSWITCH = "kswitch"
    FULL = "full"

    @classmethod
    def from_config(cls, config: DslamConfig) -> "SwitchingMode":
        """Derive the mode from a :class:`DslamConfig`."""
        if config.full_switch:
            return cls.FULL
        if config.switch_size is not None and config.switch_size > 1:
            return cls.KSWITCH
        return cls.FIXED


@dataclass
class LineCard:
    """One DSL line card: a range of port indices."""

    card_id: int
    ports: List[int]

    def __post_init__(self) -> None:
        if not self.ports:
            raise ValueError("a line card needs at least one port")


class Dslam:
    """A DSLAM shelf with its line cards and an optional HDF switch stage."""

    def __init__(
        self,
        config: DslamConfig,
        line_ports: Dict[int, int],
        mode: Optional[SwitchingMode] = None,
    ):
        """Create the DSLAM.

        Args:
            config: physical layout and switching capability.
            line_ports: initial (hard-wired) assignment of line id → port.
            mode: override the switching mode derived from ``config``.
        """
        self.config = config
        self.mode = mode if mode is not None else SwitchingMode.from_config(config)
        ports = list(line_ports.values())
        if len(set(ports)) != len(ports):
            raise ValueError("two lines terminate on the same port")
        if any(not 0 <= p < config.total_ports for p in ports):
            raise ValueError("port index out of range")
        self.line_port: Dict[int, int] = dict(line_ports)
        self.cards: List[LineCard] = [
            LineCard(card_id=c, ports=list(range(c * config.ports_per_card, (c + 1) * config.ports_per_card)))
            for c in range(config.num_line_cards)
        ]
        self._kswitch_banks: List[KSwitchBank] = []
        #: line id -> (batch index, switch index) of the k-switch it is wired to.
        self._switch_of_line: Dict[int, Tuple[int, int]] = {}
        #: Whether a rewire has packed every k-switch since construction.
        self._packed = False
        if self.mode is SwitchingMode.KSWITCH:
            self._build_kswitch_banks()

    # ------------------------------------------------------------------
    @property
    def lines(self) -> List[int]:
        """All line ids terminated at this DSLAM."""
        return list(self.line_port)

    def card_of_port(self, port: int) -> int:
        """Card index hosting ``port``."""
        if not 0 <= port < self.config.total_ports:
            raise ValueError(f"port {port} out of range")
        return port // self.config.ports_per_card

    def card_of_line(self, line_id: int) -> int:
        """Card index currently terminating ``line_id``."""
        return self.card_of_port(self.line_port[line_id])

    def online_cards(self, active_lines: Iterable[int]) -> Set[int]:
        """Card indices that must stay powered given the active lines."""
        return {self.card_of_line(line) for line in active_lines if line in self.line_port}

    # ------------------------------------------------------------------
    def rewire(
        self,
        line_active: Dict[int, bool],
        movable: Optional[Set[int]] = None,
        changed: Optional[Iterable[int]] = None,
    ) -> None:
        """Re-terminate lines according to the switching mode.

        Args:
            line_active: line id → whether the line currently carries (or is
                about to carry) traffic; missing lines are treated inactive.
            movable: line ids whose port may be changed right now.  Defaults
                to *all* lines for ``FULL`` mode and to the inactive lines
                for ``KSWITCH`` (matching the paper's no-disruption rule).
            changed: line ids whose ``line_active`` entry or membership in
                ``movable`` may differ from the previous rewire.  ``KSWITCH``
                mode then packs only the k-switches holding them: a switch
                packs its movable lines by a deterministic function of its
                own lines' activity and mobility and of the cards its pinned
                lines hold, and pinned lines never move, so a switch none of
                whose lines changed already sits where a repack would put it.
                ``None`` (the default) packs every switch, and so does the
                first rewire, because the initial wiring need not be a packed
                one.  ``FULL`` mode packs across cards and ignores it.
        """
        if self.mode is SwitchingMode.FIXED:
            return
        if self.mode is SwitchingMode.FULL:
            self._rewire_full(line_active, movable)
        else:
            self._rewire_kswitch(line_active, movable, changed)

    # ------------------------------------------------------------------
    def _build_kswitch_banks(self) -> None:
        k = self.config.switch_size or 1
        cards_per_batch = k
        num_batches = (self.config.num_line_cards + cards_per_batch - 1) // cards_per_batch
        # Group existing lines by the batch their current card belongs to.
        for batch in range(num_batches):
            first_card = batch * cards_per_batch
            last_card = min(first_card + cards_per_batch, self.config.num_line_cards)
            batch_cards = list(range(first_card, last_card))
            batch_lines = [
                line for line, port in self.line_port.items()
                if self.card_of_port(port) in batch_cards
            ]
            bank = KSwitchBank(
                k=len(batch_cards),
                num_ports_per_card=self.config.ports_per_card,
                line_ids=batch_lines,
            )
            self._kswitch_banks.append(bank)
            # Normalise the initial wiring so that every line terminates on
            # the port position owned by its switch: line j of switch s in
            # this batch starts on card (first_card + j) at position s.
            for switch_index, switch_lines in bank.switch_lines.items():
                for offset, line in enumerate(switch_lines):
                    card = batch_cards[offset]
                    self.line_port[line] = card * self.config.ports_per_card + switch_index
                    self._switch_of_line[line] = (batch, switch_index)

    def _rewire_kswitch(
        self,
        line_active: Dict[int, bool],
        movable: Optional[Set[int]],
        changed: Optional[Iterable[int]],
    ) -> None:
        k = self.config.switch_size or 1
        banks = self._kswitch_banks
        if changed is None or not self._packed:
            switches = [
                (batch_index, switch_index)
                for batch_index, bank in enumerate(banks)
                for switch_index in bank.switch_lines
            ]
            self._packed = True
        else:
            switch_of_line = self._switch_of_line
            switches = sorted({switch_of_line[l] for l in changed if l in switch_of_line})
        for batch_index, switch_index in switches:
            bank = banks[batch_index]
            self._pack_switch(
                bank.switch_lines[switch_index],
                switch_index,
                batch_index * k,
                bank.k,
                line_active,
                movable,
            )

    def _pack_switch(
        self,
        switch_lines: List[int],
        switch_index: int,
        first_card: int,
        k: int,
        line_active: Dict[int, bool],
        movable: Optional[Set[int]],
    ) -> None:
        """Pack the lines of one k-switch: inactive to low cards, active to high."""
        if movable is None:
            movable = {l for l in switch_lines if not line_active.get(l, False)}
        # Lines that must keep their current card.
        pinned = [l for l in switch_lines if l not in movable]
        pinned_cards = {self.card_of_line(l) - first_card for l in pinned}
        free_positions = [c for c in range(k) if c not in pinned_cards]

        moving_active = [l for l in switch_lines if l in movable and line_active.get(l, False)]
        moving_inactive = [l for l in switch_lines if l in movable and not line_active.get(l, False)]

        # Active (about-to-wake) lines take the highest free cards so that
        # they join cards that are already powered whenever possible.
        for line in moving_active:
            if not free_positions:
                break
            position = free_positions.pop()  # highest remaining
            self.line_port[line] = (first_card + position) * self.config.ports_per_card + switch_index
        # Inactive lines fill the lowest free cards.
        for line in moving_inactive:
            if not free_positions:
                break
            position = free_positions.pop(0)  # lowest remaining
            self.line_port[line] = (first_card + position) * self.config.ports_per_card + switch_index

    def _rewire_full(self, line_active: Dict[int, bool], movable: Optional[Set[int]]) -> None:
        """Pack active lines onto as few cards as possible (full switch)."""
        if movable is None:
            movable = set(self.line_port)
        active = [l for l in self.line_port if line_active.get(l, False)]
        inactive = [l for l in self.line_port if not line_active.get(l, False)]

        # Ports occupied by lines we are not allowed to move.
        pinned_ports = {self.line_port[l] for l in self.line_port if l not in movable}

        # Preferred card order for active lines: cards already pinned-active
        # first (ascending), then the rest ascending, so active lines
        # concentrate on the fewest cards.
        pinned_active_cards = sorted(
            {self.card_of_line(l) for l in active if l not in movable}
        )
        other_cards = [c for c in range(self.config.num_line_cards) if c not in pinned_active_cards]
        card_order = pinned_active_cards + other_cards

        free_ports: List[int] = []
        for card in card_order:
            for port in self.cards[card].ports:
                if port not in pinned_ports:
                    free_ports.append(port)

        used_ports = set(pinned_ports)
        cursor = 0
        for line in [l for l in active if l in movable]:
            while cursor < len(free_ports) and free_ports[cursor] in used_ports:
                cursor += 1
            if cursor >= len(free_ports):
                break
            self.line_port[line] = free_ports[cursor]
            used_ports.add(free_ports[cursor])
            cursor += 1

        # Inactive movable lines take whatever ports remain (their position
        # is irrelevant for card power, but every line keeps a termination).
        remaining = [p for p in range(self.config.total_ports) if p not in used_ports]
        it = iter(remaining)
        for line in [l for l in inactive if l in movable]:
            self.line_port[line] = next(it)
            used_ports.add(self.line_port[line])

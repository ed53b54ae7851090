"""Access-network device models.

User side: the *gateway* (integrated DSL modem + wireless AP + router) with
Sleep-on-Idle capability.  ISP side: the DSLAM with its terminating modems
and line cards, and the k-switches installed at the handover distribution
frame that re-terminate lines onto ports so active lines can be batched on
as few line cards as possible (Sec. 4 of the paper).
"""

from repro.access.soi import SoIConfig
from repro.access.gateway import Gateway
from repro.access.gateway_array import GatewayArray
from repro.access.kswitch import (
    KSwitchBank,
    card_sleep_probability_exact,
    card_sleep_probability_paper,
    expected_sleeping_cards,
    simulate_card_sleep_probability,
)
from repro.access.dslam import Dslam, LineCard, SwitchingMode

__all__ = [
    "SoIConfig",
    "Gateway",
    "GatewayArray",
    "Dslam",
    "LineCard",
    "SwitchingMode",
    "KSwitchBank",
    "card_sleep_probability_paper",
    "card_sleep_probability_exact",
    "simulate_card_sleep_probability",
    "expected_sleeping_cards",
]

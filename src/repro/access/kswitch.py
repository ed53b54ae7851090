"""k-switches at the handover distribution frame (Sec. 4).

A k-switch takes ``k`` subscriber lines from the HDF and terminates them on
``k`` DSLAM ports, one port on each of ``k`` different line cards, allowing
any line↔port mapping.  Its policy is simple: inactive lines are packed onto
the lowest-numbered line cards and active lines onto the highest-numbered
ones, so that (across all switches) the low-numbered cards have a chance of
hosting only inactive lines and can sleep.

This module provides:

* :func:`card_sleep_probability_paper` — Eq. (2) exactly as printed in the
  paper;
* :func:`card_sleep_probability_exact` — the same probability computed with
  the full binomial expression;
* :func:`simulate_card_sleep_probability` — a Monte-Carlo estimate of the
  same probability from inactive-line counts;
* :class:`KSwitchBank` — the partition of a batch's lines into k-switches
  that the DSLAM model packs (``Dslam._pack_switch``).
"""

from __future__ import annotations

import math
from typing import Dict, List, Sequence

import numpy as np


def card_sleep_probability_paper(l: int, k: int, m: int, p: float) -> float:
    """Eq. (2) of the paper: probability that the l-th line card sleeps.

    ``l`` is 1-indexed (the l-th card of a batch of ``k`` cards), ``m`` is
    the number of modems (switches) per line card and ``p`` the probability
    that a line is active.  The paper's printed expression is

    ``(1 - sum_{i=0}^{l-1} (1-p)^i p^(k-i))^m``

    which omits the binomial coefficients; we reproduce it verbatim here and
    provide the exact form in :func:`card_sleep_probability_exact`.
    """
    _validate_lkmp(l, k, m, p)
    q = 1.0 - p
    inner = sum((q ** i) * (p ** (k - i)) for i in range(l))
    return float(max(0.0, 1.0 - inner) ** m)


def card_sleep_probability_exact(l: int, k: int, m: int, p: float) -> float:
    """Exact probability that the l-th line card of a batch can sleep.

    Card ``l`` sleeps iff every one of the ``m`` k-switches has at least
    ``l`` inactive lines (so that position ``l`` of every switch receives an
    inactive line after packing).  With lines independently active with
    probability ``p``::

        P = [ P(Binomial(k, 1-p) >= l) ]^m
    """
    _validate_lkmp(l, k, m, p)
    q = 1.0 - p
    at_least_l_inactive = sum(
        math.comb(k, i) * q ** i * p ** (k - i) for i in range(l, k + 1)
    )
    # Rounding can push the sum a few ulps outside [0, 1].
    return min(1.0, max(0.0, at_least_l_inactive)) ** m


def simulate_card_sleep_probability(
    k: int, m: int, p: float, trials: int = 2000, seed: int = 0
) -> List[float]:
    """Monte-Carlo estimate of the sleep probability of each of the k cards.

    Each trial draws the active/inactive state of the ``m * k`` lines and
    counts the inactive lines of each switch: card ``c`` sleeps when every
    switch has at least ``c`` inactive lines, which is what packing would
    give.  It exercises neither :class:`KSwitchBank` nor the DSLAM model,
    so it checks Eq. (2)'s arithmetic, not the packing code the simulator
    runs.  The return value is the empirical sleep frequency of cards
    ``1..k``.
    """
    _validate_lkmp(1, k, m, p)
    if trials <= 0:
        raise ValueError("trials must be positive")
    rng = np.random.default_rng(seed)
    sleeps = np.zeros(k, dtype=float)
    for _ in range(trials):
        # active[s, j]: line j of switch s is active.
        active = rng.random((m, k)) < p
        # After packing, card c (0-indexed) is active iff some switch has
        # more than c active lines... equivalently card c sleeps iff every
        # switch has at least c+1 inactive lines.
        inactive_counts = (~active).sum(axis=1)
        for card in range(k):
            if np.all(inactive_counts >= card + 1):
                sleeps[card] += 1
    return list(sleeps / trials)


def expected_sleeping_cards(k: int, m: int, p: float, exact: bool = True) -> float:
    """Expected number of sleeping cards in a batch of ``k`` cards."""
    fn = card_sleep_probability_exact if exact else card_sleep_probability_paper
    return sum(fn(l, k, m, p) for l in range(1, k + 1))


def full_switch_sleeping_cards(num_ports: int, ports_per_card: int, active_lines: int) -> int:
    """Line cards a *full* switch can power off given ``active_lines`` active lines.

    With full switching capability the active lines are packed onto
    ``ceil(active/ports_per_card)`` cards, so
    ``floor((num_ports - active) / ports_per_card)`` cards sleep — the
    paper's ``⌊n·(1-p)/m⌋`` expression.  The simulator does not call it:
    it stays as the paper's closed form, which the tests pin.
    """
    if num_ports <= 0 or ports_per_card <= 0:
        raise ValueError("num_ports and ports_per_card must be positive")
    if not 0 <= active_lines <= num_ports:
        raise ValueError("active_lines must lie in [0, num_ports]")
    return (num_ports - active_lines) // ports_per_card


def _validate_lkmp(l: int, k: int, m: int, p: float) -> None:
    if k <= 0 or m <= 0:
        raise ValueError("k and m must be positive")
    if not 1 <= l <= k:
        raise ValueError(f"l must lie in [1, k], got {l}")
    if not 0.0 <= p <= 1.0:
        raise ValueError("p must lie in [0, 1]")


class KSwitchBank:
    """All the k-switches in front of a batch of ``k`` line cards.

    The bank covers ``m`` switches (one per port position), each connecting
    ``k`` lines to the same port position of the ``k`` cards.  Lines are
    identified by arbitrary hashable ids; each line belongs to exactly one
    switch, fixed at construction (its position on the HDF side).
    """

    def __init__(self, k: int, num_ports_per_card: int, line_ids: Sequence[int]):
        if k <= 0 or num_ports_per_card <= 0:
            raise ValueError("k and num_ports_per_card must be positive")
        if len(line_ids) > k * num_ports_per_card:
            raise ValueError("more lines than ports in the batch")
        if len(set(line_ids)) != len(line_ids):
            raise ValueError("line ids must be unique")
        self.k = k
        #: switch index -> list of line ids wired to that switch (≤ k each).
        self.switch_lines: Dict[int, List[int]] = {s: [] for s in range(num_ports_per_card)}
        for index, line_id in enumerate(line_ids):
            self.switch_lines[index % num_ports_per_card].append(line_id)

"""A heap-of-generators scheduler: the testbed replay's simulated clock."""

from __future__ import annotations

import heapq
import itertools
from typing import Generator, List, Tuple


class Scheduler:
    """Runs generator processes in simulated time.

    A process is a generator that yields delays in seconds and resumes
    once the clock has advanced by that delay.  Processes due at the same
    time resume in the order they were scheduled, so equal times stay
    FIFO.  An exception raised inside a process escapes :meth:`run`.
    """

    def __init__(self) -> None:
        self.now = 0.0
        self._queue: List[Tuple[float, int, Generator]] = []
        self._order = itertools.count()

    def process(self, generator: Generator) -> None:
        """Start ``generator`` at the current time."""
        self._schedule(0.0, generator)

    def run(self, until: float) -> None:
        """Resume every process due by ``until``, then set the clock to it."""
        if until < self.now:
            raise ValueError(f"until={until} lies in the past (now={self.now})")
        queue = self._queue
        while queue and queue[0][0] <= until:
            self.now, _order, generator = heapq.heappop(queue)
            try:
                delay = next(generator)
            except StopIteration:
                continue
            self._schedule(delay, generator)
        self.now = until

    def _schedule(self, delay: float, generator: Generator) -> None:
        if delay < 0:
            raise ValueError(f"negative delay {delay}")
        heapq.heappush(self._queue, (self.now + delay, next(self._order), generator))

"""How fast the machine runs right now, from a fixed probe.

On a shared VM the CPU speed moves, by up to 2x, in bursts of seconds to
minutes as other tenants load the host, and a sweep's wall and CPU times
follow it.  So every benchmark run starts one probe process::

    python3 -m perfbench.speed <samples file>

It times a fixed piece of pure-Python work every ``PERIOD_S`` on its
own thread CPU clock, so being descheduled does not count, and writes
each sample with its end stamp on the system-wide monotonic clock.  The
speed factor of an interval is the mean, over the samples inside it, of
``REFERENCE_S / sample``: 1.0 at the reference speed, below 1 when the
machine runs slower.  Time metrics are reported in reference seconds,
i.e. measured seconds times the factor of the interval they cover.  The
CPUs of one VM change speed apart from each other, so ``run.py`` keeps
the probe on the CPU of a single-process child (a set-up sample or a
serial sweep) and lets it use every CPU during a pooled sweep.

The probe uses nothing from the program, so a change to the program
cannot move the factor.
"""

from __future__ import annotations

import bisect
import os
import sys
import time
from typing import List, Sequence, Tuple

#: Thread CPU seconds one probe takes at the reference speed: the fast
#: state of the 2.1 GHz Xeon vCPU the benchmark was tuned on.  It only
#: sets the scale; every time metric scales with it alike.
REFERENCE_S = 0.005

#: Seconds between the starts of two probes (about 2.5% of one CPU).
PERIOD_S = 0.2

#: Rows the probe builds.
ROWS = 12_000

Sample = Tuple[float, float]  # (end stamp, thread CPU seconds)


def probe(rows: int = ROWS) -> float:
    """Allocation-heavy interpreted work, like the sweep's; its result.

    It builds small tuples and a dict over them, as the sweep builds flow
    records and metric rows.  Such work slows with the host's load about
    as much as a sweep does.  On the VM the benchmark was tuned on, twelve
    pooled ``fleet-churn-pooled`` sweeps scaled by this probe spread by
    0.03 (interquartile range / median), and by 0.09 when scaled by a
    tight arithmetic loop instead; unscaled, they spread by 0.15.
    """
    table = [(i, i * 0.5, "k%d" % (i & 255)) for i in range(rows)]
    index = {row[0]: row for row in table}
    return sum(row[1] for row in index.values())


def record(path: str) -> None:
    """Append one sample per ``PERIOD_S`` to ``path`` until killed.

    It also stops once its parent has gone, so a benchmark run that is
    itself killed leaves no probe behind.
    """
    parent = os.getppid()
    probe()  # The first pass warms up; it is not a sample.
    with open(path, "a", buffering=1) as out:
        while os.getppid() == parent:
            started = time.monotonic()
            cpu0 = time.thread_time()
            probe()
            cpu_s = time.thread_time() - cpu0
            out.write(f"{time.clock_gettime(time.CLOCK_MONOTONIC):.6f} {cpu_s:.7f}\n")
            time.sleep(max(0.0, PERIOD_S - (time.monotonic() - started)))


def read_samples(path) -> List[Sample]:
    """The samples of a probe file, in time order (a torn last line is skipped)."""
    samples = []
    with open(path) as lines:
        for line in lines:
            fields = line.split()
            if len(fields) == 2:
                samples.append((float(fields[0]), float(fields[1])))
    return sorted(samples)


def factor(samples: Sequence[Sample], start: float, end: float) -> float:
    """Speed factor of ``[start, end]``; the two nearest samples if none is inside."""
    if not samples:
        raise ValueError("no speed samples were recorded")
    stamps = [stamp for stamp, _cpu in samples]
    lo = bisect.bisect_left(stamps, start)
    hi = bisect.bisect_right(stamps, end)
    inside = samples[max(0, lo - 1):hi + 1] if hi - lo < 2 else samples[lo:hi]
    return sum(REFERENCE_S / cpu_s for _stamp, cpu_s in inside) / len(inside)


if __name__ == "__main__":
    record(sys.argv[1])

"""Machine-speed probe: scale measured times to a fixed reference speed.

The shared two-core machine the benchmark was calibrated on changes speed by
up to 1.7x within a minute as co-tenants come and go: the same compile pass
took 0.18 s and 0.31 s a few seconds apart, and a fixed pure-Python probe
slowed by the same factor at the same moments.  Medians within one run cannot
remove a slow period that lasts longer than the run, so every end-to-end
time is scaled by ``(PROBE_REF_MS / probe) ** exponent`` where ``probe`` is
measured right before and after the timed work.  The probe is
the benchmark's own fixed code, so a change to the program moves the
timings but not the probe.
"""

from __future__ import annotations

import gc
import statistics
import time
from contextlib import contextmanager
from typing import List

#: Probe time (ms) on the reference machine when it is not slowed down.
PROBE_REF_MS = 3.0
#: Probes per measurement; the measurement is their median.
PROBE_REPEATS = 5


def probe_ms() -> float:
    """One probe: fixed dict, set and sort work, like the compiler's, in ms."""

    # With the collector off the probe's cost does not depend on how much
    # the benchmark process happens to hold.
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        table = {}
        for i in range(6000):
            table[(i, i * 7 % 13)] = [i, str(i)]
        {key[1] for key in table}
        sorted(table.items(), key=lambda item: -item[0][1])
        return (time.perf_counter() - start) * 1000.0
    finally:
        if enabled:
            gc.enable()


class Window:
    """Scale factor of one timed window (set when the window closes)."""

    factor = 1.0


class Speed:
    """Probe measurements of one run."""

    def __init__(self) -> None:
        self.samples: List[float] = []

    def measure(self) -> float:
        value = statistics.median(probe_ms() for _ in range(PROBE_REPEATS))
        self.samples.append(value)
        return value

    @contextmanager
    def window(self, exponent: float = 1.0):
        """Probe before and after the block; ``factor`` scales its times to reference speed."""

        window = Window()
        before = self.measure()
        yield window
        window.factor = (PROBE_REF_MS / ((before + self.measure()) / 2.0)) ** exponent

    def median_ms(self) -> float:
        return statistics.median(self.samples)

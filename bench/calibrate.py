"""Machine-speed probe that the end-to-end timings are scaled by.

On a shared host the CPU runs faster or slower as other tenants load it:
the same invocation took from 73 to 132 ms over one minute on a 2-core
VM, `time.process_time` moved with wall time, and whole runs of 30 s
landed 40% apart when they fell into different load regimes.  Raw wall
times of two runs of the same code then differ by more than any useful
regression bound.

The probe is a fixed piece of pure-Python exact arithmetic that shares no
code with premetric, so no change to the program moves it.  Timed next to
each invocation it measures the machine's current speed, and the
benchmark reports each time as `seconds * REFERENCE_S / probe seconds`:
the time the invocation would have taken on a machine that runs the probe
in exactly REFERENCE_S.  Over a minute of drift that ratio varied 4%
where the raw time varied 14%.
"""

from __future__ import annotations

import gc
import time
from fractions import Fraction

REFERENCE_S = 0.004


def probe():
    """Seconds taken by the fixed probe work, with the collector paused."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        acc = {}
        x = Fraction(3, 7)
        t0 = time.perf_counter()
        for i in range(400):
            y = Fraction(i + 1, 13) * x + Fraction(5, i + 2)
            acc[i % 17] = acc.get(i % 17, 0) + y
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()

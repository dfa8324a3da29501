"""Host-speed calibration: a fixed reference loop timed next to the program.

The benchmark runs on shared virtual machines whose speed drifts by 20-40 %
over minutes as other tenants load the host; the program's CPU time drifts
with its wall time, so neither can be compared between runs made minutes
apart.  The drift is close to one factor for all code, so the child times
this loop before every step and after the last one, and scales each step's
time by ``REFERENCE_S / loop time`` (the mean of the loops on either side):
the step's time on a host that runs the loop in ``REFERENCE_S``.  Set-up time
is scaled the same way by loops run right after it.

The loop mixes interpreter work (dict and str operations, like the
per-frame code) with numpy work on 2e5-element arrays (like the bulk
simulation), because either alone tracks only part of the workloads.  It
uses the standard library and numpy only, never ``aloha_noma``, so no change
to the program moves it.  ``REFERENCE_S`` is about its median time on a
2 vCPU Intel Xeon VM at 2.0 GHz with Python 3.11 and numpy 2.4.
"""

from __future__ import annotations

import time

import numpy as np

REFERENCE_S = 0.060


def loop() -> float:
    """Run the reference loop once; returns its time in seconds."""
    start = time.perf_counter()
    table: dict[int, int] = {}
    digits = 0
    for i in range(60_000):
        key = i % 97
        table[key] = table.get(key, 0) + i
        digits += len(str(i))
    rng = np.random.default_rng(1)
    for _ in range(3):
        x = rng.random(200_000)
        x.sort()
        np.searchsorted(np.cumsum(x) * 2.0, x)
    return time.perf_counter() - start


def scale(seconds: float, loop_s: float) -> float:
    """``seconds`` measured while the loop took ``loop_s``, at reference speed."""
    return seconds * REFERENCE_S / loop_s

"""The host's speed over a run, from a short fixed reference loop timed
again and again during the run.

The host gives the benchmark no CPU isolation. Other tenants share it, and the
benchmark's CPU switches between a fast and a slow state about 1.6x to 2x
apart. A state lasts from under a second to several minutes. CPU time
tracks wall time throughout, so the process is not descheduled: it runs
slower. A state that lasts minutes holds for a whole run, so neither more
passes nor longer runs average it out; over ten runs the wall times then
spread by 0.3 to 0.5 of their median.

So a run also times a fixed loop of about 40 ms, the same on every commit:
after every `training.evaluate` call (11 to 17 per training cell, spread
over training), before the first block of set-up calls and after each block.
The run's slowdown is the mean loop time over REFERENCE_S, and the run
reports its timings divided by it: seconds at the host's fast state. The
clock the timings are read from stops while the loop runs. The loop is the
benchmark's own code, so a change to actknow cannot move it.
"""

from __future__ import annotations

import gc
import statistics
import time

import numpy as np

# median time of reference_loop in the fast state, measured on 2 vCPUs of
# an Intel Xeon with Python 3.11.7, numpy 2.4.6 and one BLAS thread
REFERENCE_S = 0.0425

_WORDS = ("which concept links the premise to the choice through an entity and a relation "
          "of the graph retrieved for the question").split()


def reference_loop() -> float:
    """Wall time of a fixed mix of the work actknow spends its time on:
    chains of small numpy products, as in an autodiff forward and backward,
    and dict and string work, as in BM25 retrieval and mention scanning.
    The cyclic garbage collector is off while it runs, so the size of the
    program's heap does not change its time."""
    rng = np.random.default_rng(0)
    w = rng.standard_normal((32, 32)) / 6.0
    x = rng.standard_normal((8, 32))
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        df: dict[str, int] = {}
        for i in range(300):
            h = x
            for _ in range(12):
                h = np.tanh(h @ w)
                h = h + 0.01 * ((1.0 - h * h) @ w.T).mean()
            tokens = " ".join(_WORDS[(i + k) % len(_WORDS)] for k in range(24)).lower().split()
            tf: dict[str, int] = {}
            for t in tokens:
                tf[t] = tf.get(t, 0) + 1
            for t in sorted(tf, key=lambda t: (-tf[t], t)):
                df[t] = df.get(t, 0) + 1
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


class HostSpeed:
    """The reference loop's times over one run, and a clock that stops
    while the loop runs."""

    def __init__(self) -> None:
        reference_loop()  # the first call in a process runs slower; not a lap
        self.laps: list[float] = []
        self._paused = 0.0

    def lap(self) -> None:
        t0 = time.perf_counter()
        self.laps.append(reference_loop())
        self._paused += time.perf_counter() - t0

    def now(self) -> float:
        """time.perf_counter() less the time spent in laps."""
        return time.perf_counter() - self._paused

    def slowdown(self) -> float:
        """The run's mean loop time over REFERENCE_S: 1.0 when the host
        stayed in its fast state, about 1.8 when it stayed in its slow one."""
        return statistics.fmean(self.laps) / REFERENCE_S

"""Host-speed calibration: a fixed reference computation timed beside every op.

On a shared host the speed of the CPU the benchmark gets swings by a third
or more within seconds, as other tenants load the machine; process CPU time
swings with wall time, so it is no remedy.  Every timed op is therefore
bracketed by two samples of a reference computation that never touches the
package: a pure-Python loop, numpy ufuncs over a 32^3 array (the size of a
level-32 region grid), many numpy calls on 3x3 arrays, and a streaming pass
over 8 MB.  A sample's slowness is the mean over the four parts of the
part's time divided by its nominal time, so it reads 1.0 on a host that runs
each part in its nominal time.  An op's time at nominal speed is its wall
time divided by the mean slowness of its two samples.

The two vCPUs of such a host differ in speed at any moment as well, so a
single-threaded op is timed on the CPU its samples ran on: ``one_cpu`` pins
the benchmark process, and the children it starts meanwhile, to one CPU.

The nominal times are medians on a 2-vCPU Intel Xeon at 2.0 GHz with
numpy 2.4; they only fix the scale of the reported seconds.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from time import perf_counter

import numpy as np

NOMINAL_S = {"python": 0.0028, "ufunc": 0.0038, "small": 0.0031, "stream": 0.0051}


class Calibrator:
    def __init__(self):
        rng = np.random.default_rng(0)
        self.grid = rng.standard_normal(32 ** 3)
        self.small = rng.standard_normal((3, 3))
        self.stream = rng.standard_normal(1 << 20)
        self.parts = (("python", self._python), ("ufunc", self._ufunc),
                      ("small", self._small), ("stream", self._stream))
        self.sample()

    def _python(self) -> None:
        s = 0
        for i in range(30000):
            s += i * i % 7

    def _ufunc(self) -> None:
        a = self.grid
        for _ in range(3):
            (np.sin(a) * np.cos(a) + np.sqrt(np.abs(a))).sum()

    def _small(self) -> None:
        m = self.small
        for _ in range(750):
            (m @ m + m).sum()

    def _stream(self) -> None:
        b = self.stream
        (b * 1.5 + b).sum()

    def part_times(self) -> dict:
        times = {}
        for name, fn in self.parts:
            t0 = perf_counter()
            fn()
            times[name] = perf_counter() - t0
        return times

    def sample(self) -> float:
        """Slowness of the host now: 1.0 at nominal speed, 1.5 when 50% slower."""
        times = self.part_times()
        return sum(times[k] / NOMINAL_S[k] for k in NOMINAL_S) / len(NOMINAL_S)


@contextmanager
def one_cpu():
    """Run the calling process, and the children it starts, on one of its CPUs."""
    cpus = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(cpus)})
    try:
        yield
    finally:
        os.sched_setaffinity(0, cpus)

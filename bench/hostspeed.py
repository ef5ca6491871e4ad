"""Host-speed reference, so end-to-end timings hold still on a shared host.

The machines this benchmark runs on are shared. Identical work runs up
to twice as slow from one minute to the next, and raw run-to-run
spreads of op times reach 10-57%. A run therefore also times a fixed
reference kernel between ops and around each setup process. The kernel
is written here and never calls the program under test, so a program
change shows in full. Each raw time t measured at moment m is reported as

    t * NOMINAL_S / median(the K reference samples nearest to m)

that is, host seconds on a host where the kernel takes NOMINAL_S (its
median on the machine the benchmark was defined on). Slowdowns common
to the program and the kernel cancel, including those that start or end
mid-run. Raw host times are reported beside the rescaled ones.

Each workload has a kernel shaped like its dominant work:

- ``python``: interpreted object, dict and tuple work, like the cost
  model and pattern enumeration;
- ``numpy_small``: a Python loop of numpy calls on 32 x 64 arrays, like
  the bit-serial tile loop and ADC decode;
- ``numpy_large``: Gaussian sampling and a contraction on 32 x 64 x 64
  arrays, like noisy crossbar reads.
"""

from __future__ import annotations

import bisect
import statistics
import time

import numpy as np

SAMPLE_EVERY_S = 0.25  # least wall time between sampling points
MAX_REPEATS = 8  # kernel calls at one sampling point
K_NEAREST = 16  # samples behind each rescaling factor

_RNG = np.random.default_rng(1)
_G = _RNG.random((64, 64))
_BITS = (_RNG.random((32, 64)) < 0.2).astype(np.float64)


def python_kernel() -> None:
    table: dict = {}
    rows = []
    for i in range(12000):
        key = (i % 97, i % 13)
        table[key] = table.get(key, 0) + i * 3 // 7
        rows.append((key, float(i) * 0.5))
    rows.sort(key=lambda r: (r[1], r[0]))


def numpy_small_kernel() -> None:
    acc = np.zeros((32, 64))
    for plane in range(320):
        slab = _BITS[:, (plane % 2) * 32:(plane % 2) * 32 + 32]
        popcount = slab.sum(axis=1)
        currents = slab @ _G[:32]
        codes = np.clip(np.rint(currents / 64.0 * 63), 0, 63)
        acc += (codes - popcount[:, None]) * (1 << (plane % 8))


def numpy_large_kernel() -> None:
    rng = np.random.default_rng(0)
    for _ in range(3):
        eps = rng.normal(0.0, 0.1, size=(32, 64, 64))
        np.einsum("nr,nrc->nc", _BITS, np.clip(_G * (1.0 + eps), 0.0, 1.0))


# kernel, its median time (s) on the machine that defined the benchmark
KERNELS = {
    "python": (python_kernel, 0.012),
    "numpy_small": (numpy_small_kernel, 0.010),
    "numpy_large": (numpy_large_kernel, 0.012),
}


class HostSpeed:
    def __init__(self, kind: str):
        self.kind = kind
        self._kernel, self.nominal_s = KERNELS[kind]
        self.at: list[float] = []  # time.monotonic() midway through each sample
        self.seconds: list[float] = []
        self._last = float("-inf")

    def sample(self) -> None:
        """Two kernel calls per SAMPLE_EVERY_S elapsed since the last sampling
        point, at most MAX_REPEATS: the gaps on either side of a long op
        then hold enough samples to rescale it."""
        elapsed = min(time.perf_counter() - self._last, MAX_REPEATS * SAMPLE_EVERY_S)
        repeats = max(2, min(MAX_REPEATS, round(2 * elapsed / SAMPLE_EVERY_S)))
        for _ in range(repeats):
            start = time.perf_counter()
            self._kernel()
            seconds = time.perf_counter() - start
            self.at.append(time.monotonic() - seconds / 2)
            self.seconds.append(seconds)
        self._last = time.perf_counter()

    def maybe_sample(self) -> None:
        if time.perf_counter() - self._last >= SAMPLE_EVERY_S:
            self.sample()

    def factor_at(self, moment: float) -> float:
        """Raw seconds measured at ``moment`` times this are reference seconds."""
        i = bisect.bisect(self.at, moment)
        window = range(max(0, i - K_NEAREST), min(len(self.at), i + K_NEAREST))
        nearest = sorted(window, key=lambda j: abs(self.at[j] - moment))[:K_NEAREST]
        return self.nominal_s / statistics.median(self.seconds[j] for j in nearest)

"""Machine-speed calibration for the benchmark's timings.

On a shared machine the speed of a core drifts by tens of percent over
seconds, which no number of repetitions averages out. The benchmark
therefore runs this fixed kernel in its own process right before and right
after every child it times, and reports each time scaled to the reference
speed, at which the kernel takes REFERENCE_S:

    scaled = raw * REFERENCE_S / mean(kernel before, kernel after)

The kernel mixes the work casemark does (substring sets and a Counter, log
gamma arithmetic, dict grouping) so that it slows down as the program does.
Changing the kernel or REFERENCE_S changes the unit of every time metric:
do it only together with a new baseline.
"""

from __future__ import annotations

import math
import random
import statistics
import time
from collections import Counter

REFERENCE_S = 0.030
REPEATS = 5

_rng = random.Random("casemark-bench:calibration")
_WORDS = ["".join(_rng.choice("lmnoprstuv") for _ in range(_rng.randint(5, 11))) for _ in range(700)]


def kernel() -> int:
    grams: Counter = Counter()
    for word in _WORDS:
        wrapped = "$" + word + "$"
        grams.update({wrapped[i:j] for i in range(len(wrapped)) for j in range(i + 1, len(wrapped) + 1)})
    total = 0.0
    for k in range(20000):
        total += math.exp(math.lgamma(k + 50) - math.lgamma(k + 1) - 200.0)
    groups: dict[str, list[int]] = {}
    for i, word in enumerate(_WORDS * 9):
        groups.setdefault(word[:3], []).append(i)
    return len(grams) + len(groups) + int(total > 0)


def measure() -> float:
    """Median seconds of one kernel run, over REPEATS runs."""
    samples = []
    for _ in range(REPEATS):
        start = time.perf_counter()
        kernel()
        samples.append(time.perf_counter() - start)
    return statistics.median(samples)


class SpeedClock:
    """Calibrates between consecutive timed children; each child's scale
    uses the kernel times measured right before and right after it."""

    def __init__(self):
        self.last = measure()

    def scale(self) -> float:
        before, self.last = self.last, measure()
        return REFERENCE_S / ((before + self.last) / 2)

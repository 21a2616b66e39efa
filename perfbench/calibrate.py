"""Box-speed calibration.

On a shared machine the speed of one core drifts with its neighbours'
load: a fixed pure-Python loop takes anywhere between 1x and 1.85x its
fastest time within a minute, and every op slows with it.  The benchmark
therefore times a small fixed kernel (no flatspan code, the interpreter
paths polynomial arithmetic uses: tuples, dicts, ints, Fractions) at
least every ``INTERVAL`` seconds, and reports each op's time scaled to a
box on which the kernel takes ``KERNEL_REF_S``: measured time times
``KERNEL_REF_S`` over the mean of the kernel timings just before and just
after the op.  Since the kernel does not run the program, a change to the
program moves the scaled times exactly as it moves the raw ones.
"""

from __future__ import annotations

import time
from fractions import Fraction

KERNEL_REF_S = 0.014  # typical kernel time on the 2-vCPU VM the baseline was recorded on
INTERVAL = 0.2


def kernel() -> int:
    table: dict = {}
    for i in range(4000):
        key = (i % 7, i % 11, i % 13)
        table[key] = table.get(key, 0) + Fraction(i % 5 + 1, 3)
    return len(table)


class Clock:
    def __init__(self):
        self.samples: list[float] = []
        self.last = 0.0
        self.sample()

    def sample(self) -> None:
        start = time.perf_counter()
        kernel()
        self.last = time.perf_counter()
        self.samples.append(self.last - start)

    def mark(self) -> int:
        """Calibrate if due; the index of the sample preceding what follows."""
        if time.perf_counter() - self.last >= INTERVAL:
            self.sample()
        return len(self.samples) - 1

    def scale(self, mark: int) -> float:
        """Factor from measured seconds after ``mark`` to reference seconds."""
        after = self.samples[mark + 1] if mark + 1 < len(self.samples) else self.samples[mark]
        return 2 * KERNEL_REF_S / (self.samples[mark] + after)

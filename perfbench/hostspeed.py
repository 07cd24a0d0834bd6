"""Correct host timings for the speed of a shared machine.

On a shared host the same simulation can take 40% longer from one minute
to the next, because neighbouring jobs slow the cores down. The process is
not descheduled (user time tracks wall time) and no hardware counters are
exposed, so the drift shows in every timing. :class:`HostSpeed` measures
it during the timed work itself. Every :data:`INTERVAL_S` a timer signal
runs a small fixed pure-Python kernel twice and records the second, warm
pass. A timing over a window is then corrected by the window's median
kernel time: ``seconds * (REFERENCE_KERNEL_S / median) ** SENSITIVITY``.
The time the samples themselves take is excluded.

On a quiet host the kernel takes about :data:`REFERENCE_KERNEL_S`, so
corrected and raw seconds agree there. On a 2-core Xeon sandbox, this
correction cut the call-to-call coefficient of variation of a 4 s serving
simulation from 15% to 6%.
"""

from __future__ import annotations

import signal
import statistics
import time

#: median warm kernel time on a quiet core of a 2-core Xeon sandbox
REFERENCE_KERNEL_S = 360e-6
#: how much the simulator's host time moves per unit of kernel slowdown,
#: on a log scale: fitted over repeated ResNet50 runs and serving
#: simulations on that sandbox (0.70 to 0.75), where a full correction
#: over-corrected whenever the host sped up
SENSITIVITY = 0.75
#: seconds between kernel samples (the samples cost about 0.7% of that)
INTERVAL_S = 0.1


def _kernel() -> int:
    table: dict[int, int] = {}
    total = 0
    for i in range(3000):
        key = (i * 7919) & 511
        value = table.get(key)
        if value is None:
            table[key] = i
        else:
            total += value & 7
    return total


class HostSpeed:
    """Samples the kernel on a timer signal while running."""

    def __init__(self) -> None:
        self.samples: list[float] = []
        self.spent = 0.0  # seconds spent inside the sampler

    def _sample(self, signum, frame) -> None:
        start = time.perf_counter()
        _kernel()
        warm = time.perf_counter()
        _kernel()
        end = time.perf_counter()
        self.samples.append(end - warm)
        self.spent += end - start

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def mark(self) -> tuple[float, float, int]:
        return time.perf_counter(), self.spent, len(self.samples)

    def since(self, mark: tuple[float, float, int]) -> tuple[float, float]:
        """(raw, corrected) seconds since ``mark``, without sampler time.

        A window too short to hold a sample is corrected by every sample
        taken so far.
        """
        start, spent, first = mark
        raw = time.perf_counter() - start - (self.spent - spent)
        window = self.samples[first:] or self.samples
        kernel = statistics.median(window) if window else REFERENCE_KERNEL_S
        return raw, raw * (REFERENCE_KERNEL_S / kernel) ** SENSITIVITY

"""Wall times in nominal seconds, corrected for the machine's drifting speed.

The benchmark shares its machine with other tenants, whose load moves
the speed of the same code by a fifth within minutes.  A fixed
reference kernel is timed before and after every measured interval, and
the interval's wall time is scaled by :data:`NOMINAL_KERNEL_S` over the
kernel's mean time: the interval as it would read on a machine where the
kernel takes :data:`NOMINAL_KERNEL_S`.  A slower program still reads
slower; a slower machine does not.
"""

from __future__ import annotations

import time

import numpy as np

#: the reference kernel's wall time that defines a nominal second
NOMINAL_KERNEL_S = 0.04
_LOOPS = 150_000
_FLOATS = 250_000
_SORTS = 4


class SpeedClock:
    """Converts consecutive intervals to nominal seconds."""

    def __init__(self) -> None:
        # sorted again on every run, so that allocation costs stay out
        self._floats = np.random.default_rng(0).random(_FLOATS)
        self._buffer = np.empty_like(self._floats)
        self._before = self.kernel_seconds()
        #: every kernel time measured, for the diagnostics
        self.kernels = [self._before]

    def kernel_seconds(self) -> float:
        """Wall time of fixed interpreter and numpy work, like the
        program's; the median of three repeats, so that one interruption
        does not count."""
        times = []
        for _ in range(3):
            start = time.perf_counter()
            counts: dict = {}
            for i in range(_LOOPS):
                counts[i % 997] = counts.get(i % 997, 0) + i
            for _ in range(_SORTS):
                np.copyto(self._buffer, self._floats)
                self._buffer.sort()
            times.append(time.perf_counter() - start)
        return sorted(times)[1]

    def factor(self) -> float:
        """Call when an interval ends: the factor that turns its wall time
        into nominal seconds.  The next interval starts from here."""
        after = self.kernel_seconds()
        self.kernels.append(after)
        factor = 2 * NOMINAL_KERNEL_S / (self._before + after)
        self._before = after
        return factor

"""Host-speed normalisation of measured times.

Other tenants of a shared host slow it by up to half for seconds to tens of
seconds at a time, far more than the differences the benchmark must
resolve.  The slowdown hits the simulator and a fixed pure-Python kernel
together, so every timed operation is bracketed by two runs of the kernel
and its time is multiplied by ``(REF_S / k) ** ALPHA``, ``k`` the mean of
the two kernel times: the result reads as the operation's time on a host
where the kernel takes ``REF_S`` seconds.  The factor depends on the
kernel alone, so a change in the program's own speed passes through it
unchanged.  The unscaled wall times are kept beside the scaled ones.
"""

from __future__ import annotations

import gc
import time

#: The kernel's time, in seconds, on a quiet 2-vCPU x86_64 VM (Python
#: 3.11); scaled times read as times on such a host.
REF_S = 0.08

#: How strongly the simulator's time follows the kernel's.  Measured on
#: that VM while other tenants came and went: over five minutes of
#: sim_single, the median throughput of each 30 s stretch spread 23 %
#: (interquartile range over median) unscaled, 6.4 % scaled with exponent
#: 1, with a drift that showed it over-corrects, and 2.4 % with 0.75.
ALPHA = 0.75


def kernel_s() -> float:
    """Seconds of one run of a fixed pure-Python kernel.

    Dict updates, integer hashing and list appends, the operations the
    simulator's inner loops are made of.  The collector is off while it
    runs, so its time does not depend on the size of the program's heap.
    """
    was_on = gc.isenabled()
    gc.disable()
    t0 = time.perf_counter()
    table: dict[int, int] = {}
    acc, out = 0, []
    for i in range(300_000):
        key = (i * 2654435761) & 0xFFFF
        acc = (acc + table.get(key, i)) & 0xFFFFFFFF
        table[key] = acc ^ i
        if acc & 7 == 0:
            out.append(acc)
    seconds = time.perf_counter() - t0
    if was_on:
        gc.enable()
    return seconds


class Clock:
    """Kernel runs between timed operations.

    Create it just before the first operation and call :meth:`scale` just
    after each one.
    """

    def __init__(self) -> None:
        self.samples = [kernel_s()]

    def scale(self) -> float:
        """The factor for the operation since the last kernel run."""
        self.samples.append(kernel_s())
        k = (self.samples[-2] + self.samples[-1]) / 2
        return (REF_S / k) ** ALPHA

"""Machine-speed calibration for timings taken on a shared machine.

On a machine shared with other tenants the speed of one core swings by
half for seconds at a time, and CPU time swells with wall time (both
measured with a fixed pure-Python loop).  So the benchmark times a fixed
calibration kernel on the measured core at the boundaries of every
unit of work (a simulator cycle, a daemon session) and scales the
unit's time by ``REFERENCE_S / kernel time``: the result is the time the
unit would have taken at the reference speed.  A change to the program
moves the unit times but not the kernel, so it still shows in full.
"""

from __future__ import annotations

import os
import time
from contextlib import contextmanager
from typing import Iterator, List, Optional, Sequence, Tuple

#: seconds :func:`kernel` takes on an uncontended core of the reference
#: machine (Intel Xeon at 2.1 GHz, CPython 3.11); the unit of every
#: calibrated time is "seconds at this speed"
REFERENCE_S = 0.0027

#: iterations of the kernel's loop
_LOOP = 20_000


def kernel() -> float:
    """Run the fixed calibration loop once; return its wall seconds."""
    started = time.perf_counter()
    table = {}
    for i in range(_LOOP):
        key = i % 977
        table[key] = table.get(key, 0) + i
    return time.perf_counter() - started


def sample(repeats: int = 2) -> float:
    """The kernel's time now: the faster of *repeats* runs (filters a preemption)."""
    return min(kernel() for _ in range(repeats))


def scaled(durations: Sequence[float], samples: Sequence[float]) -> List[float]:
    """Reference-speed durations of consecutive intervals.

    ``samples[i]`` and ``samples[i + 1]`` are the kernel times taken at
    the start and the end of interval ``i``.
    """
    if len(samples) != len(durations) + 1:
        raise ValueError("need one calibration sample per interval boundary")
    return [
        seconds * 2 * REFERENCE_S / (before + after)
        for seconds, before, after in zip(durations, samples, samples[1:])
    ]


def cpu_split() -> Optional[Tuple[int, int]]:
    """Two distinct CPUs this process may run on, or ``None`` with fewer."""
    cpus = sorted(os.sched_getaffinity(0))
    return (cpus[0], cpus[1]) if len(cpus) >= 2 else None


@contextmanager
def on_cpu(cpu: Optional[int]) -> Iterator[None]:
    """Run the block with this process pinned to *cpu* (no-op for ``None``)."""
    if cpu is None:
        yield
        return
    previous = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {cpu})
    try:
        yield
    finally:
        os.sched_setaffinity(0, previous)

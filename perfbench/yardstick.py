"""A fixed yardstick of host speed, timed next to every operation.

On a shared host the speed of the machine itself moves by up to 2x for
stretches of seconds to minutes, so raw operation times mostly measure
the other tenants.  The yardstick is a fixed piece of work -- pure-Python
dict updates plus a NumPy sort and prefix sum, the same mix the simulator
spends its time in -- that shares nothing with the simulator's code.
Timing it right before and right after an operation says how fast the
host was at that moment; dividing the operation's time by it cancels
the host's drift, and multiplying by :data:`YARDSTICK_S` turns the ratio
back into seconds.
"""

from __future__ import annotations

import time

import numpy as np

#: The yardstick's typical time on the 2-vCPU Intel Xeon host the
#: benchmark was tuned on.  It only scales the reported times into
#: seconds; every run of every version uses the same constant.
YARDSTICK_S = 0.015

_DICT_ITERATIONS = 60_000
_ARRAY = np.random.default_rng(0).integers(0, 1 << 20, 200_000)


def _work() -> int:
    counts: dict[int, int] = {}
    for i in range(_DICT_ITERATIONS):
        key = i & 1023
        counts[key] = counts.get(key, 0) + i
    return int(np.cumsum(np.sort(_ARRAY))[-1]) + len(counts)


def measure() -> float:
    """Host seconds of one pass of the yardstick."""
    started = time.perf_counter()
    _work()
    return time.perf_counter() - started


def normalised(seconds: float, before: float, after: float) -> float:
    """``seconds`` on a host whose yardstick takes :data:`YARDSTICK_S`,
    given the yardstick's times right before and right after."""
    return seconds * YARDSTICK_S * 2 / (before + after)

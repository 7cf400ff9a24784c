"""Host-speed rescaling of the benchmark's host times.

On a shared host the speed of the same code drifts by tens of percent
from one few-second window to the next. A fixed calibration chunk,
timed between every two measured segments of a simulation, follows that
drift; each segment is rescaled by the speed measured around it, so its
time reads as on a host where one chunk takes ``REF_CHUNK_S``. The chunk does what the simulator's hot path
does (small objects, heap pushes and pops of tuples, dict stores and
lookups, SHA-256 of short bytes) and runs with the garbage collector
off, so that its time does not depend on the size of the simulator's
heap.

Rescaling divides out the host's speed, not the program's: a change
that makes a segment do less work lowers its rescaled time as much as
its host time.
"""

from __future__ import annotations

import gc
import hashlib
import heapq
import statistics
import time

# The 5th percentile of 20 s of chunks on a shared 2-CPU Intel Xeon VM
# (Python 3.11): rescaled times are seconds on that host near its fastest.
REF_CHUNK_S = 0.0022
SMOOTH = 5  # chunks in the running median that gives the speed around a segment


class _Item:
    __slots__ = ("key", "value")

    def __init__(self, key: int, value: int):
        self.key = key
        self.value = value


def chunk(n: int = 1500) -> float:
    """Time one calibration chunk, in seconds."""
    enabled = gc.isenabled()
    gc.disable()
    t0 = time.perf_counter()
    heap, table, acc = [], {}, 0
    for i in range(n):
        item = _Item(i, (i * 2654435761) & 0xFFFF)
        heapq.heappush(heap, (item.value, i, "msg", item))
        table[item.value] = hashlib.sha256(item.value.to_bytes(4, "big") + b"x" * 40).digest()
    while heap:
        value, _i, _kind, item = heapq.heappop(heap)
        acc += len(table.get(value, b"")) + item.key
    elapsed = time.perf_counter() - t0
    del heap, table
    if enabled:
        gc.enable()
    return elapsed


class Meter:
    """Times segments with a calibration chunk before, between and after them."""

    def __init__(self):
        self.chunks = [chunk()]
        self.host_s: list[float] = []

    def time(self, fn, *args):
        t0 = time.perf_counter()
        result = fn(*args)
        self.host_s.append(time.perf_counter() - t0)
        self.chunks.append(chunk())
        return result

    def rescaled(self) -> list[float]:
        """Each segment's host time at the reference speed."""
        half = SMOOTH // 2
        c = self.chunks
        speed = [statistics.median(c[max(0, i - half):i + half + 1]) for i in range(len(c))]
        return [t * REF_CHUNK_S / ((speed[i] + speed[i + 1]) / 2) for i, t in enumerate(self.host_s)]

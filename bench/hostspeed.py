"""Host-speed sampling, to take host drift out of timings.

On a shared machine the speed of a core drifts by tens of percent within
seconds and by more over an hour, and CPU time drifts with it. A fixed
pure-Python chunk of work, timed at every watchdog tick while a pass runs,
measures the speed of the host at that moment; a pass's time divided by
the mean chunk time is far steadier than the pass's raw time. The chunk
uses the operations the simulator's event loop is made of: heap pushes
and pops, dict updates and struct packing. It does not touch swarmlink,
so a change to the program cannot change the unit it is measured in.
"""

from __future__ import annotations

import heapq
import statistics
import struct
import time
from typing import Dict, List

CHUNK_ITERATIONS = 2000
# About the chunk's time on an idle core of a 2 GHz x86 virtual machine
# under Python 3.11; scales chunk units back to seconds for set-up time.
NOMINAL_CHUNK_S = 0.002


def reference_chunk() -> None:
    heap: List[tuple] = []
    counts: Dict[int, int] = {}
    for i in range(CHUNK_ITERATIONS):
        heapq.heappush(heap, ((i * 7919) % 1000, i))
        counts[i & 1023] = counts.get(i & 1023, 0) + 1
        struct.pack(">IH", i, i & 0xFFFF)
        if len(heap) > 64:
            heapq.heappop(heap)


class HostSpeed:
    """Chunk timings plus the total time spent taking them, which the
    caller subtracts from whatever it timed around them."""

    def __init__(self) -> None:
        self.samples: List[float] = []
        self.spent = 0.0

    def sample(self) -> None:
        start = time.perf_counter()
        reference_chunk()
        self.samples.append(time.perf_counter() - start)
        self.spent += time.perf_counter() - start

    def chunk_s(self, since: int) -> float:
        """Mean chunk time of the samples taken from index `since` on,
        sampling once more if there are none."""
        if len(self.samples) <= since:
            self.sample()
        return statistics.fmean(self.samples[since:])

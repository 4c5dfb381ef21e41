"""The reference loop that calibrates host times.

A fixed pure-Python loop -- integer arithmetic, dict and heap updates,
slotted objects and a generator, the kinds of work the simulator does.
Its time measures how fast the host runs Python at that moment.  The
benchmark scales host times by it: a rate by the loop's time over
``REF_NOMINAL_S``, a duration by ``REF_NOMINAL_S`` over the loop's
time.  On a host where the loop takes ``REF_NOMINAL_S`` the calibrated
and raw figures agree.
"""

import heapq
import time

#: Seconds the reference loop takes on the nominal host.
REF_NOMINAL_S = 0.1


class _Entry:
    __slots__ = ("key", "hits")

    def __init__(self, key: int) -> None:
        self.key = key
        self.hits = 0


def _keys(table: dict, heap: list, count: int):
    for i in range(count):
        key = (i * 2654435761) & 0x3FFF
        entry = table.get(key)
        if entry is None:
            entry = table[key] = _Entry(key)
        entry.hits += 1
        heapq.heappush(heap, (entry.hits, key))
        if len(heap) > 1024:
            heapq.heappop(heap)
        yield key


def reference_loop() -> float:
    """Seconds the reference loop takes now."""
    start = time.perf_counter()
    acc, table = 0, {}
    for i in range(100_000):
        acc = (acc * 31 + i) & 0xFFFFFFFF
        table[i & 1023] = acc
    for key in _keys({}, [], 40_000):
        acc ^= key
    return time.perf_counter() - start

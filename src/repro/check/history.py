"""Per-key read/write history checking (the KV consistency monitor).

:class:`RecordingStore` wraps any :class:`~repro.kv.KeyValueBackend`
at the *client* boundary (the monitor's — or a KV workload's — view),
records every operation's interval on the simulated clock (a write's
from its invocation to its ack), and checks two properties the surveys
call out as the hard part of remote-memory consistency:

* **read-your-writes** — a read that *starts after* a write to the
  same key was acknowledged must observe that write (or a newer one);
* **no-stale-read-after-ack** — equivalently, a read may never return
  a value older than the newest write acked before the read began.
  Reads that overlap an in-flight write may legally return either the
  old or the new value.

Because the wrapper sits outside :class:`~repro.kv.ReplicatedStore`
failover and :class:`~repro.cluster.ClusterStore` migration, the
checks hold *across* replica crashes and shard rebalancing — exactly
the windows where a dropped forwarding rule or a lagging replica
would leak a stale page.

Values are tracked by identity: the simulation's stores move the same
Python objects end to end (pages are not serialized), so ``id()`` plus
a keep-alive reference is an exact, allocation-free fingerprint.
"""

from __future__ import annotations

from typing import Any, Dict, Generator, List, Optional

from ..kv.api import KeyValueBackend, WriteItem
from ..mem import PAGE_SIZE
from .invariants import NULL_CHECKER, CorrectnessChecker

__all__ = ["KvHistory", "RecordingStore"]

#: Sentinel value recorded when a key is removed.
_TOMBSTONE = object()

#: Writes retained per key (older ones can no longer be the floor of
#: any live read, because reads are bounded in duration).
_RETAIN_WRITES = 16


class _Write:
    __slots__ = ("value", "invoked_us", "ack_us")

    def __init__(self, value: Any, invoked_us: float) -> None:
        self.value = value
        self.invoked_us = invoked_us
        #: None while the write is in flight (or failed indeterminately).
        self.ack_us: Optional[float] = None


class KvHistory:
    """Write timelines (invoked, acked) for every key seen through one
    wrapper."""

    def __init__(self, checker: CorrectnessChecker) -> None:
        self._checker = checker
        self._writes: Dict[int, List[_Write]] = {}
        self.reads_checked = 0
        self.writes_recorded = 0

    def _append(self, key: int, write: _Write) -> None:
        timeline = self._writes.setdefault(key, [])
        timeline.append(write)
        if len(timeline) > _RETAIN_WRITES:
            del timeline[0]

    def record_invoke(self, key: int, value: Any, now: float) -> None:
        """A write (or remove, with the tombstone) was issued."""
        self._append(key, _Write(value, now))

    def record_ack(self, key: int, value: Any, now: float) -> None:
        """A write (or remove, with the tombstone) became durable.

        Acks the newest in-flight write of ``value``; a write that was
        never recorded at invocation counts as invoked at its ack.
        """
        self.writes_recorded += 1
        for write in reversed(self._writes.get(key, ())):
            if write.value is value and write.ack_us is None:
                write.ack_us = now
                return
        write = _Write(value, now)
        write.ack_us = now
        self._append(key, write)

    def check_read(
        self, key: int, value: Any, started_us: float, now: float
    ) -> None:
        """Validate one completed read against the key's timeline."""
        timeline = self._writes.get(key)
        if not timeline:
            return  # key never written through this wrapper
        self.reads_checked += 1
        # The floor: newest write acked before the read began.  Any
        # write invoked by the read's end and not acked before it
        # began overlaps the read, so its value is legal as well.
        floor = None
        for write in timeline:
            ack = write.ack_us
            if ack is not None and ack <= started_us and (
                floor is None or ack >= floor.ack_us
            ):
                floor = write
        for write in timeline:
            if write.value is value and (
                write is floor
                or (
                    (write.ack_us is None or write.ack_us > started_us)
                    and write.invoked_us <= now
                )
            ):
                return
        if floor is not None and floor.value is _TOMBSTONE:
            self._checker.violation(
                "kv-history",
                f"read of key {key:#x} returned a value although the "
                f"newest acked operation (t={floor.ack_us:.1f}) removed "
                "the key",
                key=f"{key:#x}", read_started=started_us,
                read_finished=now,
            )
        stale = any(
            write.value is value and write.ack_us is not None
            and write.ack_us <= started_us
            for write in timeline
        )
        self._checker.violation(
            "kv-history",
            f"stale read of key {key:#x}: value predates the newest "
            f"write acked before the read began"
            if stale else
            f"read of key {key:#x} returned a value no acked or "
            f"in-flight write produced",
            key=f"{key:#x}", read_started=started_us, read_finished=now,
            floor_acked=None if floor is None else floor.ack_us,
        )


class RecordingStore(KeyValueBackend):
    """Transparent backend wrapper feeding a :class:`KvHistory`.

    Composes like every other wrapper (compression, replication, fault
    injection); place it outermost so failover and migration happen
    *inside* the recorded interval.
    """

    def __init__(
        self,
        inner: KeyValueBackend,
        checker: Optional[CorrectnessChecker] = None,
    ) -> None:
        super().__init__(inner.env)
        self.inner = inner
        self.check = checker if checker is not None else NULL_CHECKER
        self.history = KvHistory(self.check)
        self.name = f"recorded-{inner.name}"
        self.supports_partitions = inner.supports_partitions

    @property
    def is_alive(self) -> bool:
        return self.inner.is_alive

    # -- recorded operations -------------------------------------------------

    def get(self, key: int) -> Generator:
        started = self.env.now
        value = yield from self.inner.get(key)
        if self.check.enabled:
            self.history.check_read(key, value, started, self.env.now)
        return value

    def multi_read(self, keys: List[int]) -> Generator:
        started = self.env.now
        values = yield from self.inner.multi_read(list(keys))
        if self.check.enabled:
            for key, value in zip(keys, values):
                self.history.check_read(key, value, started, self.env.now)
        return values

    def put(self, key: int, value: Any, nbytes: int = PAGE_SIZE) -> Generator:
        if self.check.enabled:
            self.history.record_invoke(key, value, self.env.now)
        yield from self.inner.put(key, value, nbytes)
        if self.check.enabled:
            self.history.record_ack(key, value, self.env.now)

    def multi_write(self, items: List[WriteItem]) -> Generator:
        items = list(items)
        if self.check.enabled:
            for key, value, _nbytes in items:
                self.history.record_invoke(key, value, self.env.now)
        yield from self.inner.multi_write(items)
        if self.check.enabled:
            for key, value, _nbytes in items:
                self.history.record_ack(key, value, self.env.now)

    def remove(self, key: int) -> Generator:
        if self.check.enabled:
            self.history.record_invoke(key, _TOMBSTONE, self.env.now)
        yield from self.inner.remove(key)
        if self.check.enabled:
            self.history.record_ack(key, _TOMBSTONE, self.env.now)

    # read_async / write_async inherit the split-halves drivers from
    # KeyValueBackend, which call self.get / self.multi_write above —
    # so asynchronous operations are recorded with their true spans.

    # -- introspection pass-through ------------------------------------------

    def contains(self, key: int) -> bool:
        return self.inner.contains(key)

    def stored_keys(self) -> int:
        return self.inner.stored_keys()

    @property
    def used_bytes(self) -> int:
        return self.inner.used_bytes

    def __repr__(self) -> str:
        return (
            f"<RecordingStore over {self.inner!r} "
            f"writes={self.history.writes_recorded} "
            f"reads={self.history.reads_checked}>"
        )

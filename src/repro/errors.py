"""Exception hierarchy for the FluidMem reproduction.

Every package raises exceptions derived from :class:`ReproError` so callers
can catch library failures distinctly from programming errors.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by this library."""


class SimulationError(ReproError):
    """Errors raised by the discrete-event simulation engine."""


class InterruptError(SimulationError):
    """Raised inside a process generator when it is interrupted.

    The ``cause`` attribute carries the value passed to
    :meth:`repro.sim.Process.interrupt`.
    """

    def __init__(self, cause: object = None) -> None:
        super().__init__(cause)
        self.cause = cause


class MemoryError_(ReproError):
    """Errors from the memory substrate (frames, page tables, regions)."""


class OutOfFramesError(MemoryError_):
    """The host frame allocator has no free frames left."""


class PageTableError(MemoryError_):
    """Invalid page-table operation (double map, unmap of absent page, ...)."""


class RegionError(MemoryError_):
    """Invalid memory-region operation (overlap, bad bounds, ...)."""


class NetworkError(ReproError):
    """Errors from the simulated network fabric."""


class HostUnreachableError(NetworkError):
    """No route between two hosts on the fabric."""


class KVError(ReproError):
    """Errors from key-value store backends."""


class KeyNotFoundError(KVError):
    """GET/REMOVE on a key the store does not hold."""


class TransientStoreError(KVError):
    """A retryable backend failure: crashed/partitioned/flaky node.

    Raised while the failure *might* clear (the node can recover, the
    partition can heal, the next attempt can succeed).  Retry layers
    catch exactly this type; anything else is treated as permanent.
    """


class DataCorruptionError(TransientStoreError):
    """A read returned bytes whose checksum does not match what was
    written.  Transient in the retry sense: the same page can be
    re-read from another replica or re-fetched cleanly."""


class StoreUnavailableError(KVError):
    """A backend was declared dead: retries and failovers exhausted.

    Terminal — the monitor quarantines the affected VM rather than
    retrying further.
    """


class PartitionError(KVError):
    """Invalid partition id or virtual-partition encoding failure."""


class CoordinationError(ReproError):
    """Errors from the Zookeeper-like coordination service."""


class NodeExistsError(CoordinationError):
    """Create of a znode path that already exists."""


class NoNodeError(CoordinationError):
    """Operation on a znode path that does not exist."""


class SessionExpiredError(CoordinationError):
    """Operation on an expired coordination session."""


class QuorumLostError(CoordinationError):
    """Too few replicas alive to serve a consistent operation."""


class BlockDeviceError(ReproError):
    """Errors from the block-device layer."""


class OutOfRangeError(BlockDeviceError):
    """Block request beyond the end of the device."""


class KernelError(ReproError):
    """Errors from the simulated kernel subsystems."""


class SwapError(KernelError):
    """Swap subsystem failure (no swap space, bad swap entry, ...)."""


class OutOfSwapError(SwapError):
    """Swap device is full."""


class UffdError(KernelError):
    """Invalid userfaultfd operation."""


class UffdRegionError(UffdError):
    """Register/unregister of an invalid or overlapping uffd range."""


class VmError(ReproError):
    """Errors from the VM / hypervisor layer."""


class VcpuDeadlockError(VmError):
    """A vCPU can make no progress (e.g. recursive fault at 1-page footprint)."""


class FluidMemError(ReproError):
    """Errors from the FluidMem monitor and its components."""


class MonitorStateError(FluidMemError):
    """Monitor used while not running, or double-start, etc."""


class InvariantViolation(ReproError):
    """A runtime correctness invariant was broken (``repro.check``).

    Carries the invariant's name, structured details, and the tail of
    the observability event trace at the moment of the violation, so a
    failure arrives with its event context attached.
    """

    def __init__(
        self,
        invariant: str,
        message: str,
        details: dict = None,
        trace_tail: tuple = (),
    ) -> None:
        super().__init__(f"[{invariant}] {message}")
        self.invariant = invariant
        self.details = details or {}
        self.trace_tail = tuple(trace_tail)

    def context_text(self) -> str:
        """Multi-line rendering of details plus the trace tail."""
        lines = [str(self)]
        for name in sorted(self.details):
            lines.append(f"  {name} = {self.details[name]!r}")
        if self.trace_tail:
            lines.append("  trace tail (most recent last):")
            for event in self.trace_tail:
                lines.append(f"    {event}")
        return "\n".join(lines)


class MarketError(ReproError):
    """Errors from the memory marketplace (``repro.market``)."""


class ParallelError(ReproError):
    """Errors from the multiprocess execution layer (``repro.parallel``).

    Raised when a worker process crashes more times than the retry
    budget allows, or when a task raises.
    """


class WorkloadError(ReproError):
    """Errors from workload generators."""


class ScenarioError(ReproError):
    """Errors from the declarative scenario platform (``repro.scenario``).

    Raised on schema violations (unknown fields, bad policy names, out
    of range values — each issue listed with its JSON path and, where a
    vocabulary exists, a did-you-mean suggestion) and on scenario
    compilation/runtime failures.
    """


class BenchError(ReproError):
    """Errors from the benchmark harness."""

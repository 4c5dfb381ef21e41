"""The scenario fleet engine: many small VMs, declarative behavior.

The ``fleet`` scenario kind runs a fleet of lightweight VMs whose
access pattern (Zipfian / uniform / sweep / mixed), load profile
(constant / diurnal with spikes), and chaos (seeded crash and surge
windows) all come from the scenario document — no per-workload Python.
Each :class:`FleetVM` is the fleet VM core
(:class:`~repro.workloads.fleet.FleetVMCore`, the VM :mod:`repro.market`
fleets run too) with a zero lease budget: residency on a real kernel
:class:`~repro.kernel.ActiveInactiveLists`, one access loop, one
counter record, one crash/surge state machine and its audit.  This
module adds only the pattern draws, the load curve, the name-derived
chaos windows and the queueing latency buckets.

Determinism is the contract.  A VM's RNG is derived from its *name*
(``derive_seed(seed, "vm:<name>")``), its chaos windows from
``derive_seed(seed, "chaos:<name>")``, and all cross-VM aggregation is
integer-only (counts and fixed log-bucket latency histograms), so any
partitioning of the fleet over :func:`repro.parallel.run_tasks` workers
merges to byte-identical results.  :func:`run_fleet_block` is the
module-level worker entry point: a pure function of its payload.
"""

from __future__ import annotations

import math
import random
from bisect import bisect_left
from typing import Dict, List, Optional, Tuple

from ..sim import derive_seed
from ..workloads.fleet import FIRST_TOUCH, SWAP_FAULT, FleetVMCore
from ..workloads.ycsb import ZipfianGenerator
from .schema import FleetChaosSpec, FleetSpec, FleetTenantSpec

__all__ = [
    "FIRST_TOUCH_US",
    "SWAP_FAULT_US",
    "LATENCY_BUCKETS_US",
    "FleetVM",
    "fleet_vm_names",
    "fleet_payloads",
    "run_fleet_block",
    "merge_block_results",
    "histogram_percentile",
]

#: Modeled fault latencies (µs), matching the market fleet's scale:
#: a first touch is a zero-fill, a refault pays the far-memory path.
FIRST_TOUCH_US = 4.0
SWAP_FAULT_US = 150.0

#: Per-tick fault queueing: every earlier fault in the same tick adds
#: 2% service delay, capped at 4x — a deterministic stand-in for fault
#: handler contention under bursty load.
_QUEUE_SLOPE = 0.02
_QUEUE_CAP = 3.0

#: Fixed log2 bucket upper edges (µs) for fault latencies.  Integer
#: counts per bucket merge across workers by plain addition, which is
#: what keeps reports byte-identical at any worker count.
LATENCY_BUCKETS_US = (
    1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0,
    256.0, 512.0, 1024.0, 2048.0,
)


#: Bisecting these edges maps a latency to its bucket: the first edge
#: at or above it, with anything over the second-to-last edge landing
#: in the last bucket.
_BUCKET_SEARCH = LATENCY_BUCKETS_US[:-1]
_FIRST_TOUCH_BUCKET = bisect_left(_BUCKET_SEARCH, FIRST_TOUCH_US)


def _swap_bucket_runs() -> Tuple[Tuple[slice, int], ...]:
    """(fault indices, bucket) runs for a tick's swap faults.

    A tick's ``i``-th fault, when it is a swap fault, queues behind the
    ``i`` faults before it, so its bucket depends only on ``i``; past
    the queueing cap it stops changing, and the last run is open-ended.
    """
    runs: List[Tuple[slice, int]] = []
    for i in range(int(_QUEUE_CAP / _QUEUE_SLOPE) + 2):
        queue = min(_QUEUE_SLOPE * i, _QUEUE_CAP)
        bucket = bisect_left(_BUCKET_SEARCH, SWAP_FAULT_US * (1.0 + queue))
        if runs and runs[-1][1] == bucket:
            continue
        if runs:  # a new bucket closes the previous run at i
            runs[-1] = (slice(runs[-1][0].start, i), runs[-1][1])
        runs.append((slice(i, None), bucket))
    return tuple(runs)


_SWAP_BUCKET_RUNS = _swap_bucket_runs()

#: Per-VM counters summed into each tenant's row, in report order.
_TENANT_COUNTERS = (
    "accesses", "hits", "faults", "first_touches", "swap_faults",
    "deaths", "surge_ticks",
)


def histogram_percentile(counts: List[int], fraction: float) -> float:
    """The bucket upper edge covering the ``fraction`` quantile."""
    total = sum(counts)
    if total == 0:
        return 0.0
    rank = fraction * total
    seen = 0
    for index, count in enumerate(counts):
        seen += count
        if seen >= rank:
            return LATENCY_BUCKETS_US[index]
    return LATENCY_BUCKETS_US[-1]


# ---------------------------------------------------------------------------
# Chaos windows
# ---------------------------------------------------------------------------

def _chaos_windows(
    seed: int, name: str, chaos: FleetChaosSpec, ticks: int
) -> Tuple[Optional[Tuple[int, int]], Optional[Tuple[int, int]]]:
    """This VM's (crash, surge) tick windows, or ``None`` for each.

    Derived from the VM's *name*, never from fleet position, so any
    partitioning of the fleet replays identical chaos.  The draw order
    is fixed (crash decision, crash shape, surge decision, surge shape)
    so a window's placement depends only on seed + name + durations.
    """
    rng = random.Random(derive_seed(seed, f"chaos:{name}"))
    crash = surge = None
    crash_roll = rng.random()
    start = 1 + rng.randrange(max(1, ticks - 1))
    duration = 1 + rng.randrange(max(1, ticks // 8))
    if chaos.crash_fraction > 0 and crash_roll < chaos.crash_fraction:
        crash = (start, min(ticks, start + duration))
    surge_roll = rng.random()
    start = 1 + rng.randrange(max(1, ticks - 1))
    duration = 2 + rng.randrange(max(1, ticks // 4))
    if chaos.surge_fraction > 0 and surge_roll < chaos.surge_fraction:
        surge = (start, min(ticks, start + duration))
    return crash, surge


def _covers(window: Optional[Tuple[int, int]], tick: int) -> bool:
    return window is not None and window[0] <= tick < window[1]


# ---------------------------------------------------------------------------
# The VM
# ---------------------------------------------------------------------------

class FleetVM(FleetVMCore):
    """One scenario-fleet VM: the fleet VM core with a zero lease
    budget, driven by its declared pattern, load and chaos windows."""

    def __init__(
        self,
        name: str,
        spec: FleetTenantSpec,
        seed: int,
        ticks: int,
        chaos: FleetChaosSpec,
    ) -> None:
        rng = random.Random(derive_seed(seed, f"vm:{name}"))
        super().__init__(name, spec.footprint_pages, spec.capacity_pages, rng)
        self.spec = spec
        pattern = spec.pattern
        self.zipf: Optional[ZipfianGenerator] = None
        if pattern.kind in ("zipfian", "mixed"):
            self.zipf = ZipfianGenerator(
                spec.footprint_pages, self.rng, theta=pattern.theta
            )
        self._sweep_pos = 0
        self.crash_window, self.surge_window = _chaos_windows(
            seed, name, chaos, ticks
        )

    # -- pattern draws ------------------------------------------------------

    def _draw_pages(self, count: int) -> List[int]:
        """This tick's ``count`` page numbers, in access order.

        Nothing else draws from the VM's RNG during a tick, so drawing
        them all up front replays the per-access stream exactly.  The
        Zipfian pattern takes one :meth:`ZipfianGenerator.next_many`
        call; ``mixed`` interleaves a coin flip with each draw, so it
        draws access by access.  Draws may exceed the footprint; the
        core's access loop takes them modulo it.
        """
        pattern = self.spec.pattern
        footprint = self.spec.footprint_pages
        kind = pattern.kind
        if self.surging or kind == "uniform":
            return self.draw_uniform(count)
        if kind == "zipfian":
            return self.zipf.next_many(count)
        if kind == "mixed":
            coin = self.rng.random
            randrange = self.rng.randrange
            zipf = self.zipf
            fraction = pattern.zipf_fraction
            return [
                zipf.next() if coin() < fraction else randrange(footprint)
                for _ in range(count)
            ]
        # sweep: a strided pass over the footprint, the ML-training
        # shape — every page is equally cold by the time it comes back.
        start = self._sweep_pos
        stride = pattern.stride
        self._sweep_pos = (start + count * stride) % footprint
        return [(start + i * stride) % footprint for i in range(count)]

    def _load_multiplier(self, tick: int) -> float:
        load = self.spec.load
        multiplier = 1.0
        if load.kind == "diurnal":
            phase = 2.0 * math.pi * tick / load.period_ticks
            multiplier += (load.peak_multiplier - 1.0) * (
                0.5 - 0.5 * math.cos(phase)
            )
        for spike in load.spikes:
            if spike.covers(tick):
                multiplier *= spike.multiplier
        return multiplier

    # -- the tick -----------------------------------------------------------

    def run_tick(
        self, tick: int, histogram: List[int],
        events: List[Tuple[int, str, str]],
    ) -> int:
        """One tick of accesses; returns this VM's fault count."""
        for transition in self.chaos_step(
            _covers(self.crash_window, tick),
            _covers(self.surge_window, tick),
        ):
            events.append((tick, transition, self.name))
        if self.dead:
            return 0
        rate = self.spec.accesses_per_tick * self._load_multiplier(tick)
        if self.surging:
            rate *= 2.0
        accesses = max(1, int(round(rate)))
        if self._sweep_shuffle_due(tick):
            self._sweep_pos = self.rng.randrange(self.spec.footprint_pages)
        kinds = self.access(self._draw_pages(accesses))
        histogram[_FIRST_TOUCH_BUCKET] += kinds.count(FIRST_TOUCH)
        for indices, bucket in _SWAP_BUCKET_RUNS:
            histogram[bucket] += kinds[indices].count(SWAP_FAULT)
        return len(kinds)

    def _sweep_shuffle_due(self, tick: int) -> bool:
        pattern = self.spec.pattern
        return (
            pattern.kind == "sweep"
            and pattern.shuffle_every_ticks > 0
            and tick > 0
            and tick % pattern.shuffle_every_ticks == 0
        )


# ---------------------------------------------------------------------------
# Parallel blocks
# ---------------------------------------------------------------------------

def fleet_vm_names(
    spec: FleetSpec, quick: bool
) -> List[Tuple[FleetTenantSpec, str]]:
    """The full fleet in canonical order: tenant order, then index."""
    out: List[Tuple[FleetTenantSpec, str]] = []
    for tenant in spec.tenants:
        for index in range(tenant.vm_count(quick)):
            out.append((tenant, f"{tenant.name}-{index:03d}"))
    return out


def fleet_payloads(
    spec: FleetSpec, seed: int, quick: bool, invariants: bool
) -> List[Dict[str, object]]:
    """Fixed-size VM blocks for :func:`repro.parallel.run_tasks`.

    Block boundaries depend only on the scenario (``block_vms``), never
    on the worker count, so the same blocks merge in the same order at
    any parallelism.
    """
    vms = fleet_vm_names(spec, quick)
    payloads = []
    for start in range(0, len(vms), spec.block_vms):
        payloads.append({
            "seed": seed,
            "ticks": spec.tick_count(quick),
            "chaos": spec.chaos,
            "invariants": invariants,
            "vms": vms[start:start + spec.block_vms],
        })
    return payloads


def run_fleet_block(payload: Dict[str, object]) -> Dict[str, object]:
    """Simulate one block of VMs for the whole run (worker entry).

    Pure function of the payload: every VM's RNG and chaos windows are
    derived from the scenario seed and the VM's name, so this block
    produces identical results whether it runs in the parent, a worker
    process, or a different partitioning entirely.
    """
    seed = payload["seed"]
    ticks = payload["ticks"]
    chaos = payload["chaos"]
    vms = [
        FleetVM(name, tenant, seed, ticks, chaos)
        for tenant, name in payload["vms"]
    ]
    histogram = [0] * len(LATENCY_BUCKETS_US)
    events: List[Tuple[int, str, str]] = []
    per_tick_faults = [0] * ticks
    for tick in range(ticks):
        for vm in vms:
            per_tick_faults[tick] += vm.run_tick(tick, histogram, events)
    audits = 0
    if payload["invariants"]:
        for vm in vms:
            audits += vm.audit()
    tenants: Dict[str, Dict[str, int]] = {}
    for vm in vms:
        stats = tenants.setdefault(
            vm.spec.name, dict.fromkeys(("vms",) + _TENANT_COUNTERS, 0)
        )
        stats["vms"] += 1
        for key in _TENANT_COUNTERS:
            stats[key] += getattr(vm.stats, key)
    return {
        "per_tick_faults": per_tick_faults,
        "histogram": histogram,
        "tenants": tenants,
        "events": events,
        "audits": audits,
    }


def merge_block_results(
    results: List[Dict[str, object]], spec: FleetSpec, quick: bool
) -> Dict[str, object]:
    """Fold block results (in task order) into one fleet result.

    Everything merged here is an integer count, and events are sorted
    by (tick, vm, kind), so the merge is independent of both worker
    count and block boundaries.
    """
    ticks = spec.tick_count(quick)
    per_tick_faults = [0] * ticks
    histogram = [0] * len(LATENCY_BUCKETS_US)
    tenants: Dict[str, Dict[str, int]] = {}
    events: List[Tuple[int, str, str]] = []
    audits = 0
    for result in results:
        for tick, count in enumerate(result["per_tick_faults"]):
            per_tick_faults[tick] += count
        for index, count in enumerate(result["histogram"]):
            histogram[index] += count
        for name, stats in result["tenants"].items():
            merged = tenants.setdefault(name, dict.fromkeys(stats, 0))
            for key, value in stats.items():
                merged[key] += value
        events.extend(tuple(event) for event in result["events"])
        audits += result["audits"]
    events.sort(key=lambda event: (event[0], event[2], event[1]))
    # Tenant order from the scenario, not dict insertion across blocks.
    ordered = {
        tenant.name: tenants[tenant.name]
        for tenant in spec.tenants if tenant.name in tenants
    }
    return {
        "per_tick_faults": per_tick_faults,
        "histogram": histogram,
        "tenants": ordered,
        "events": events,
        "audits": audits,
    }

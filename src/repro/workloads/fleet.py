"""The one tick-level fleet VM: residency, lease, access loop, chaos.

Both tick-level fleets — the marketplace (:mod:`repro.market.fleet`)
and the ``fleet`` scenario kind (:mod:`repro.scenario.workloads`) —
model a VM as FluidMem sees it: pages that are resident, held in
leased remote memory, or not yet touched.  :class:`FleetVMCore` is
that VM.  A scenario VM is a market VM whose lease budget stays zero;
each fleet layers only its own draws, latency model and chaos source
on top.

The core owns:

* **Residency** on a real kernel
  :class:`~repro.kernel.ActiveInactiveLists` (``lists``) plus every
  page ever touched (``pages``), so hit rates emerge from
  second-chance reclaim rather than being declared.
* **The leased far tier.**  ``remote`` holds spilled pages in FIFO
  order; a fault's eviction victims spill to it while ``remote_budget``
  lasts, and the rest fall to swap.
* **The access loop** (:meth:`access`): hit test, fault classified as
  first touch, remote hit or swap fault, eviction, insert.  It returns
  the tick's fault kinds in order; the layer maps them to latencies.
* **One counter record** (:class:`FleetVMStats`) and its
  :meth:`audit`.
* **Crash, reboot and surge** as one state machine
  (:meth:`chaos_step`), fed each tick by the layer's chaos source.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from ..errors import InvariantViolation
from ..kernel import ActiveInactiveLists
from ..mem import PAGE_SIZE, Page

__all__ = [
    "FIRST_TOUCH",
    "REMOTE_HIT",
    "SWAP_FAULT",
    "FleetVMStats",
    "FleetVMCore",
]

#: Fault kinds returned by :meth:`FleetVMCore.access`.
FIRST_TOUCH = 0
REMOTE_HIT = 1
SWAP_FAULT = 2


@dataclass
class FleetVMStats:
    """Integer counters only: cross-worker merges must be exact."""

    accesses: int = 0
    hits: int = 0
    faults: int = 0
    first_touches: int = 0
    remote_hits: int = 0
    swap_faults: int = 0
    deaths: int = 0
    surge_ticks: int = 0


class FleetVMCore:
    """One tick-level VM: aging LRU, leased far tier, crash/surge."""

    def __init__(
        self, name: str, footprint_pages: int, capacity_pages: int, rng
    ) -> None:
        self.name = name
        self.footprint = footprint_pages
        self.capacity = capacity_pages
        self.rng = rng
        self.lists = ActiveInactiveLists()
        self.pages: Dict[int, Page] = {}
        #: Pages held in leased remote memory (FIFO for demotion).
        self.remote: "OrderedDict[int, bool]" = OrderedDict()
        self.remote_budget = 0
        self.dead = False
        #: True while a surge covers the VM: its working set expands to
        #: the whole footprint (uniform draws).
        self.surging = False
        self.stats = FleetVMStats()

    # -- draws ---------------------------------------------------------------

    def draw_uniform(self, count: int) -> List[int]:
        """``count`` page numbers drawn uniformly over the footprint."""
        randrange = self.rng.randrange
        footprint = self.footprint
        return [randrange(footprint) for _ in range(count)]

    # -- the access loop -----------------------------------------------------

    def access(self, page_nos: Sequence[int]) -> List[int]:
        """Run one tick's accesses; returns its fault kinds in order.

        Page numbers are taken modulo the footprint.  A fault on a full
        VM first evicts down to ``capacity - 1``; victims spill to
        ``remote`` while the budget lasts.  A refault of a page in ``remote`` (always also in
        ``pages``) leaves the far tier as a remote hit; any other
        refault is a swap fault.
        """
        lists = self.lists
        active = lists.active
        inactive = lists.inactive
        in_active = active.get
        in_inactive = inactive.get
        pages = self.pages
        remote = self.remote
        budget = self.remote_budget
        capacity = self.capacity
        footprint = self.footprint
        kinds: List[int] = []
        fault = kinds.append
        hits = 0
        for page_no in page_nos:
            vaddr = page_no % footprint * PAGE_SIZE
            page = in_active(vaddr)
            if page is None:
                page = in_inactive(vaddr)
            if page is not None:
                page.referenced = True  # a load: Page.read()'s bit
                hits += 1
                continue
            page = pages.get(vaddr)
            if page is None:
                page = Page(vaddr)
                pages[vaddr] = page
                fault(FIRST_TOUCH)
            elif vaddr in remote:
                del remote[vaddr]
                fault(REMOTE_HIT)
            else:
                fault(SWAP_FAULT)
            if len(active) + len(inactive) >= capacity:
                victims = lists.evict_to(capacity - 1)
                if budget:
                    for victim in victims:
                        if len(remote) >= budget:
                            break
                        remote[victim.vaddr] = True
            lists.insert(page)
            page.referenced = True
        stats = self.stats
        stats.accesses += len(page_nos)
        stats.hits += hits
        stats.faults += len(kinds)
        stats.first_touches += kinds.count(FIRST_TOUCH)
        stats.remote_hits += kinds.count(REMOTE_HIT)
        stats.swap_faults += kinds.count(SWAP_FAULT)
        return kinds

    # -- chaos ---------------------------------------------------------------

    def chaos_step(self, crashed: bool, surging: bool) -> Tuple[str, ...]:
        """Apply this tick's chaos; returns the transitions, in order.

        A crashed tick fail-stops a live VM (``"crash"``) and leaves the
        surge state alone.  Otherwise a dead VM comes back
        (``"reboot"``), then the surge starts or ends.
        """
        if crashed:
            if self.dead:
                return ()
            self.crash()
            return ("crash",)
        transitions: Tuple[str, ...] = ()
        if self.dead:
            self.reboot()
            transitions = ("reboot",)
        if surging != self.surging:
            self.surging = surging
            transitions += ("surge-start" if surging else "surge-end",)
        if surging:
            self.stats.surge_ticks += 1
        return transitions

    def crash(self) -> None:
        """Fail-stop: residency and leases are gone."""
        self.dead = True
        self.stats.deaths += 1
        self.lists = ActiveInactiveLists()
        self.pages.clear()
        self.remote.clear()
        self.remote_budget = 0

    def reboot(self) -> None:
        """Come back cold: empty memory, faults ahead."""
        self.dead = False

    # -- self-audit ----------------------------------------------------------

    def audit(self) -> int:
        """Check this VM's bookkeeping invariants; returns audit count."""
        stats = self.stats
        lists = self.lists
        # A reclaim that gives up leaves the lists over capacity by its
        # shortfall, until the next fault's reclaim catches up.
        if len(lists) > self.capacity + lists.shortfall:
            raise InvariantViolation(
                "fleet-residency",
                f"VM {self.name} holds {len(lists)} resident pages "
                f"over capacity {self.capacity} (last reclaim fell "
                f"{lists.shortfall} short)",
                details={"vm": self.name, "resident": len(lists)},
            )
        if stats.hits + stats.faults != stats.accesses:
            raise InvariantViolation(
                "fleet-access-accounting",
                f"VM {self.name}: hits ({stats.hits}) + faults "
                f"({stats.faults}) != accesses ({stats.accesses})",
                details={"vm": self.name},
            )
        classified = (
            stats.first_touches + stats.remote_hits + stats.swap_faults
        )
        if classified != stats.faults:
            raise InvariantViolation(
                "fleet-fault-accounting",
                f"VM {self.name}: first touches ({stats.first_touches}) "
                f"+ remote hits ({stats.remote_hits}) + swap faults "
                f"({stats.swap_faults}) != faults ({stats.faults})",
                details={"vm": self.name},
            )
        return 3

"""The guest kernel's active/inactive page lists.

Linux reclaim keeps two LRU lists per type.  New pages enter the
inactive list; a page referenced again while inactive is promoted to the
active list instead of being reclaimed (second chance via the hardware
referenced bit).  kswapd refills the inactive list from the active tail
when it gets short.

This victim-selection quality is precisely why, in the paper's Figure
4c/d, *swap backed by DRAM slightly beats FluidMem backed by DRAM*: "the
kswapd process within the guest [is] better able to pick candidates for
eviction using the kernel's active/inactive list mechanism", while
FluidMem's user-space LRU never reorders (§V-A).  Reproducing that
crossover requires reproducing this mechanism.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import List, Optional

from ..errors import KernelError
from ..mem import Page

__all__ = ["ActiveInactiveLists"]


class ActiveInactiveLists:
    """Two-list page aging with referenced-bit second chance.

    ``active`` and ``inactive`` map vaddr to page, oldest first.  They
    are public so a hot loop can test residency with a plain dict
    lookup; callers must treat them as read-only and change the lists
    only through the methods below.
    """

    def __init__(self) -> None:
        # OrderedDict ends: popitem(last=False) == oldest (tail of LRU).
        self.active: "OrderedDict[int, Page]" = OrderedDict()
        self.inactive: "OrderedDict[int, Page]" = OrderedDict()
        #: Pages the last :meth:`evict_to` call could not free.
        self.shortfall = 0

    # -- membership -----------------------------------------------------------

    def insert(self, page: Page) -> None:
        """A newly mapped page enters the inactive list (MRU end)."""
        if page.vaddr in self.active or page.vaddr in self.inactive:
            raise KernelError(f"{page!r} is already on an LRU list")
        self.inactive[page.vaddr] = page

    def insert_active(self, page: Page) -> None:
        """Workingset refault: a quickly refaulting page is activated
        immediately (Linux's mm/workingset.c shadow-entry logic)."""
        if page.vaddr in self.active or page.vaddr in self.inactive:
            raise KernelError(f"{page!r} is already on an LRU list")
        self.active[page.vaddr] = page

    def remove(self, page: Page) -> None:
        """Drop a page from whichever list holds it (unmap/free path)."""
        if self.inactive.pop(page.vaddr, None) is None:
            if self.active.pop(page.vaddr, None) is None:
                raise KernelError(f"{page!r} is on no LRU list")

    def discard(self, page: Page) -> None:
        """Like :meth:`remove` but silent when absent."""
        if self.inactive.pop(page.vaddr, None) is None:
            self.active.pop(page.vaddr, None)

    def __contains__(self, page: Page) -> bool:
        return page.vaddr in self.active or page.vaddr in self.inactive

    @property
    def active_count(self) -> int:
        return len(self.active)

    @property
    def inactive_count(self) -> int:
        return len(self.inactive)

    def __len__(self) -> int:
        return len(self.active) + len(self.inactive)

    # -- reclaim --------------------------------------------------------------

    def select_victims(
        self, count: int, scan_limit_factor: int = 4
    ) -> List[Page]:
        """Pick up to ``count`` reclaim candidates.

        Scans from the inactive tail.  A page whose referenced bit is set
        gets a second chance: the bit is cleared and the page is promoted
        to the active list.  Unreferenced pages are removed and returned
        as victims.  The inactive list is first refilled from the active
        tail when it holds less than half the pages (Linux's
        inactive_is_low heuristic), with referenced bits cleared so hot
        pages must prove themselves again.
        """
        if count <= 0:
            raise KernelError(f"victim count must be positive, got {count}")
        active = self.active
        inactive = self.inactive
        # Refill: each move shrinks the gap by two, so this many moves
        # leave the inactive list at least as long as the active one.
        for _ in range((len(active) - len(inactive) + 1) // 2):
            vaddr, page = active.popitem(last=False)
            page.referenced = False
            inactive[vaddr] = page
        victims: List[Page] = []
        scan = min(len(inactive), max(count * scan_limit_factor, count))
        for _ in range(scan):
            vaddr, page = inactive.popitem(last=False)
            if page.referenced:
                # Second chance: clear the bit and promote.
                page.referenced = False
                active[vaddr] = page
                continue
            victims.append(page)
            if len(victims) == count:
                break
        return victims

    def evict_to(self, target: int) -> List[Page]:
        """Reclaim until at most ``target`` pages are on the lists.

        Runs :meth:`select_victims` rounds for the whole excess until
        the lists fit.  A round that frees nothing (every scanned page
        was referenced and got promoted) is retried once with
        ``scan_limit_factor=64``; if that frees nothing either, the
        lists stay over ``target`` by ``shortfall`` pages.  Returns
        every victim in eviction order.  This is the per-fault reclaim
        of the tick-level fleets, so each round's refill and scan are
        inlined here rather than called.
        """
        active = self.active
        inactive = self.inactive
        pop_active = active.popitem
        pop_inactive = inactive.popitem
        victims: List[Page] = []
        append = victims.append
        excess = len(active) + len(inactive) - target
        factor = 4
        while excess > 0:
            for _ in range((len(active) - len(inactive) + 1) // 2):
                vaddr, page = pop_active(last=False)
                page.referenced = False
                inactive[vaddr] = page
            left = excess
            for _ in range(min(len(inactive), excess * factor)):
                vaddr, page = pop_inactive(last=False)
                if page.referenced:
                    page.referenced = False
                    active[vaddr] = page
                    continue
                append(page)
                left -= 1
                if not left:
                    break
            if left < excess:
                excess = left
                factor = 4
            elif factor == 64:
                break
            else:
                # Every page got a second chance this scan; age harder.
                factor = 64
        self.shortfall = max(excess, 0)
        return victims

    # -- working-set estimation (harvester hook) --------------------------------

    def referenced_inactive_count(self) -> int:
        """Inactive pages whose referenced bit is currently set.

        Non-destructive (unlike :meth:`select_victims`' aging scan):
        the bits stay so reclaim still sees them.
        """
        return sum(1 for page in self.inactive.values() if page.referenced)

    def wss_estimate(self) -> int:
        """Working-set-size estimate from the page-access stats.

        Counts the pages the aging machinery currently believes are
        hot: the whole active list plus the inactive pages that were
        referenced since the last scan.  This is the signal the
        ``repro.market`` harvester shrinks a producer VM toward —
        everything else on the lists is reclaimable without a refault
        storm.
        """
        return self.active_count + self.referenced_inactive_count()

    # -- introspection ----------------------------------------------------------

    def oldest_inactive(self) -> Optional[Page]:
        if not self.inactive:
            return None
        vaddr = next(iter(self.inactive))
        return self.inactive[vaddr]

    def __repr__(self) -> str:
        return (
            f"<ActiveInactiveLists active={len(self.active)} "
            f"inactive={len(self.inactive)}>"
        )

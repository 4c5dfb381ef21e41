"""Pluggable memory-management policies (the "policy lab").

Three families, each behind a small ABC with interchangeable
implementations, raced against each other by the ``tournament`` bench
experiment (``python -m repro.bench tournament``):

* :mod:`repro.policy.alloc` — where frames and remote-store slots are
  placed (LIFO stack, first-fit, buddy, size-class arenas),
* :mod:`repro.policy.prefetch` — which pages the monitor pulls ahead
  of demand (none, sequential, Leap majority-trend),
* :mod:`repro.policy.share` — which VM's page is evicted first
  (weighted proportional shares).

``repro.policy.share`` imports from :mod:`repro.core` and is loaded
lazily here, so the allocation/prefetch half of the package stays
importable from inside ``repro.core`` itself without a cycle.
"""

from .alloc import (
    AllocationPolicy,
    BuddyAllocationPolicy,
    FirstFitAllocationPolicy,
    LifoAllocationPolicy,
    SizeClassArenaAllocationPolicy,
)
from .prefetch import (
    LeapPrefetcher,
    NoopPrefetcher,
    Prefetcher,
    SequentialPrefetcher,
    resolve_prefetcher,
)
from .registry import (
    ALLOCATION_POLICIES,
    DEFAULT_ALLOC_POLICY,
    DEFAULT_PREFETCH_POLICY,
    PREFETCH_POLICIES,
    PolicyCombo,
    make_alloc_policy,
    validate_policy_names,
)

__all__ = [
    "AllocationPolicy",
    "LifoAllocationPolicy",
    "FirstFitAllocationPolicy",
    "BuddyAllocationPolicy",
    "SizeClassArenaAllocationPolicy",
    "Prefetcher",
    "NoopPrefetcher",
    "SequentialPrefetcher",
    "LeapPrefetcher",
    "resolve_prefetcher",
    "ALLOCATION_POLICIES",
    "PREFETCH_POLICIES",
    "DEFAULT_ALLOC_POLICY",
    "DEFAULT_PREFETCH_POLICY",
    "PolicyCombo",
    "make_alloc_policy",
    "validate_policy_names",
    "SharePolicy",
    "ShareSpec",
]


def __getattr__(name):  # PEP 562: lazy share import (avoids a cycle
    # while repro.core's own __init__ is still executing).
    if name in ("SharePolicy", "ShareSpec"):
        from .share import SharePolicy, ShareSpec

        return {"SharePolicy": SharePolicy, "ShareSpec": ShareSpec}[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

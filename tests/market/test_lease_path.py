"""The consumer lease path of a market VM.

Eviction victims spill to leased remote memory while the budget lasts,
a refault of a spilled page is a remote hit, a budget cut demotes the
oldest remote pages, and a crash loses leases and harvested state.
"""

import random

from repro.market import MarketVM, TenantSlo, TenantSpec
from repro.mem import PAGE_SIZE
from repro.sim import Environment
from repro.workloads.fleet import FIRST_TOUCH, REMOTE_HIT, SWAP_FAULT

CAPACITY = 32


def _vm(seed=1, footprint=256, capacity=CAPACITY):
    spec = TenantSpec(
        name="c", vms=1, role="consumer", footprint_pages=footprint,
        capacity_pages=capacity, slo=TenantSlo(100.0),
    )
    env = Environment()
    return env, MarketVM(env, "c-000", spec, random.Random(seed))


def _fill(vm, pages):
    """First-touch pages ``0 .. pages - 1``; returns the vaddrs of
    those evicted again (touched but no longer resident)."""
    kinds = vm.access(list(range(pages)))
    assert kinds == [FIRST_TOUCH] * pages
    resident = set(vm.lists.active) | set(vm.lists.inactive)
    return [p * PAGE_SIZE for p in range(pages)
            if p * PAGE_SIZE not in resident]


def test_eviction_spills_victims_only_up_to_the_budget():
    _, vm = _vm()
    vm.set_remote_budget(5)
    evicted = _fill(vm, CAPACITY + 8)
    assert len(vm.lists) == CAPACITY
    assert len(evicted) == 8
    assert len(vm.remote) == 5
    assert set(vm.remote) <= set(evicted)


def test_refault_of_a_spilled_page_is_a_remote_hit():
    _, vm = _vm()
    vm.set_remote_budget(5)
    evicted = _fill(vm, CAPACITY + 8)
    spilled = next(iter(vm.remote))
    swapped = next(v for v in evicted if v not in vm.remote)
    assert vm.access([spilled // PAGE_SIZE]) == [REMOTE_HIT]
    assert spilled not in vm.remote
    assert vm.stats.remote_hits == 1
    assert vm.stats.swap_faults == 0
    assert vm.access([swapped // PAGE_SIZE]) == [SWAP_FAULT]
    assert vm.stats.swap_faults == 1
    assert vm.audit() == 3


def test_budget_cut_demotes_the_oldest_remote_pages_first():
    _, vm = _vm()
    vm.set_remote_budget(6)
    _fill(vm, CAPACITY + 8)
    order = list(vm.remote)
    assert len(order) == 6
    vm.set_remote_budget(2)
    assert vm.remote_budget == 2
    assert list(vm.remote) == order[-2:]


def test_crash_loses_leases_and_harvested_state():
    env, vm = _vm(capacity=CAPACITY + 16)
    proc = env.process(vm.harvest(16))
    env.run()
    assert proc.value == 16
    assert vm.capacity == CAPACITY
    assert vm.harvested_pages == 16
    vm.set_remote_budget(4)
    _fill(vm, 64)
    assert vm.remote
    assert vm.chaos_step(True, False) == ("crash",)
    assert vm.dead
    assert vm.stats.deaths == 1
    assert not vm.remote
    assert vm.remote_budget == 0
    assert len(vm.lists) == 0
    assert vm.capacity == vm.spec.capacity_pages
    assert vm.harvested_pages == 0
    assert vm.chaos_step(False, False) == ("reboot",)
    assert not vm.dead


def test_zero_budget_vm_never_records_a_remote_hit():
    _, vm = _vm(seed=7, footprint=128)
    rng = random.Random(7)
    kinds = []
    for _ in range(50):
        kinds += vm.access([rng.randrange(128) for _ in range(24)])
    assert REMOTE_HIT not in kinds
    assert vm.stats.remote_hits == 0
    assert not vm.remote
    assert vm.stats.swap_faults > 0
    assert vm.audit() == 3

"""Process-free remote reads leave every simulated result unchanged.

With the fast paths on, ``RamCloudStore`` / ``MemcachedStore`` settle
an async read as one scheduled completion (DESIGN.md §17).  These pins
run pmbench — and a prefetch burst forced into one step — with
``set_fastpath(False)`` (the driver process on every read) and on, and
require byte-equal raw latency samples, counters and ``net.fabric``
RNG state.
"""

import pytest

from repro.bench import build_platform
from repro.core import FluidMemConfig
from repro.kernel.uffd import UffdFault
from repro.sim import set_fastpath
from repro.workloads import Pmbench, PmbenchConfig

MEASURED = 1500


def run_pmbench(platform_name, seed, config=None):
    platform = build_platform(
        platform_name, seed=seed, fluidmem_config=config
    )
    bench = Pmbench(
        platform.env, platform.port, platform.workload_base,
        PmbenchConfig(
            wss_pages=platform.shape.wss_pages(4.0), read_ratio=0.5,
            measured_accesses=MEASURED,
        ),
        rng=platform.streams.stream("pmbench"),
    )
    result = platform.run(bench.run())
    platform.drain_writebacks()
    return platform, result


def snapshot(platform, result=None):
    monitor = platform.monitor
    state = {
        "now": platform.env.now,
        "monitor": monitor.counters.as_dict(),
        "writeback": monitor.writeback.counters.as_dict(),
        "store": platform.store.counters.as_dict(),
        "uffd_ops": monitor.ops.counters.as_dict(),
        "fault_latency": list(monitor.fault_latency.samples),
        "net_rng": platform.store.fabric._rng.getstate(),
    }
    if result is not None:
        state.update(
            reads=list(result.read_latency.samples),
            writes=list(result.write_latency.samples),
            hits=result.hits,
            faults=result.faults,
            warmup_us=result.warmup_time_us,
            measured_us=result.measured_time_us,
        )
    return state


def both_ways(run):
    """``run()`` fast-path-off and on; returns both outcomes."""
    outcomes = {}
    for fast in (False, True):
        previous = set_fastpath(fast)
        try:
            outcomes[fast] = run()
        finally:
            set_fastpath(previous)
    return outcomes[False], outcomes[True]


@pytest.mark.parametrize("seed", [3, 7])
@pytest.mark.parametrize(
    "platform_name", ["fluidmem-ramcloud", "fluidmem-memcached"]
)
def test_pmbench_byte_equal_with_process_free_reads(platform_name, seed):
    def run():
        platform, result = run_pmbench(platform_name, seed)
        return snapshot(platform, result), platform.store

    (granular, _), (inline, store) = both_ways(run)
    assert inline == granular
    # The saving is real: the inline path served nearly every read.
    reads = store.counters["reads"]
    assert reads > 500
    assert store.fabric.counters["inline_rpcs"] >= 0.95 * reads


def test_pmbench_with_prefetch_byte_equal():
    def run():
        platform, result = run_pmbench(
            "fluidmem-ramcloud", 5, FluidMemConfig(prefetch_pages=4)
        )
        return snapshot(platform, result)

    granular, inline = both_ways(run)
    assert granular["monitor"]["prefetches_issued"] > 0
    assert inline == granular


@pytest.mark.parametrize(
    "config",
    [
        # Concurrent handlers: the granular service path issues the
        # reads, several in flight contend for the NIC.
        FluidMemConfig(fault_handlers=4, prefetch_pages=4),
        # Synchronous write-back: eviction puts share the NIC with the
        # read in flight under them.
        FluidMemConfig(async_writeback=False),
    ],
    ids=["handlers4-prefetch4", "sync-writeback"],
)
@pytest.mark.parametrize(
    "platform_name", ["fluidmem-ramcloud", "fluidmem-memcached"]
)
def test_other_monitor_shapes_byte_equal(platform_name, config):
    def run():
        platform, result = run_pmbench(platform_name, 11, config)
        return snapshot(platform, result), platform.store.fabric.counters

    (granular, _), (inline, counters) = both_ways(run)
    assert counters["inline_rpcs"] > 500
    assert inline == granular


def remote_run(platform, length):
    """First address whose next ``length`` pages all sit in the store."""
    registration = platform.registration
    monitor = platform.monitor
    for handle in registration.handles:
        addrs = list(handle.region.pages())
        for index, addr in enumerate(addrs[:-length]):
            run = addrs[index + 1:index + 1 + length]
            if all(
                page not in registration.table
                and not monitor.tracker.is_first_access(
                    registration.key_for(page)
                )
                and registration.store.contains(registration.key_for(page))
                for page in run
            ):
                return handle, addr
    raise AssertionError("no remote run found")


@pytest.mark.parametrize(
    "platform_name", ["fluidmem-ramcloud", "fluidmem-memcached"]
)
def test_prefetch_burst_in_one_step_byte_equal(platform_name):
    """Force the NIC-hold hazard: with the heap empty, one prefetch
    step issues four reads.  The first goes inline; the rest must queue
    behind its NIC hold exactly as behind a granular driver's."""

    def run():
        platform, _result = run_pmbench(
            platform_name, 9, FluidMemConfig(prefetch_pages=4)
        )
        env = platform.env
        monitor = platform.monitor
        fabric = platform.store.fabric
        handle, addr = remote_run(platform, 4)
        assert not env._heap
        before = fabric.counters.as_dict()
        fault = UffdFault(env, addr, handle.pid, False, handle)
        monitor._maybe_prefetch(fault, platform.registration)
        env.run()
        installed = [
            addr + step * 4096 in platform.registration.table
            for step in range(1, 5)
        ]
        delta = {
            name: count - before.get(name, 0)
            for name, count in fabric.counters.as_dict().items()
        }
        return snapshot(platform), installed, delta

    (granular, installed, _), (inline, installed_on, delta) = both_ways(run)
    assert installed == [True] * 4
    assert (inline, installed_on) == (granular, installed)
    assert delta.get("inline_rpcs") == 1
    assert delta.get("refused_nic_busy") == 3

"""Process-free ``read_async`` on the network stores (DESIGN.md §17).

``RamCloudStore`` and ``MemcachedStore`` settle a read as one scheduled
completion when ``Fabric.inline_rpc`` proves that equal to the driver
process.  Each test runs the same script with the fast paths off
(always the driver) and on, and requires identical timelines, values, counters and
``net.fabric`` RNG state.
"""

import pytest

from repro.errors import KeyNotFoundError
from repro.kv import (
    MemcachedServer,
    MemcachedStore,
    RamCloudServer,
    RamCloudStore,
)
from repro.net import Fabric, IPOIB, RDMA_FDR
from repro.sim import Environment, RandomStreams, set_fastpath

KEYS = (11, 12, 13, 14)


def make_store(kind, seed=3):
    env = Environment()
    fabric = Fabric(env, RandomStreams(seed=seed))
    fabric.add_host("hypervisor")
    fabric.add_host("kv-server")
    if kind == "ramcloud":
        fabric.connect("hypervisor", "kv-server", RDMA_FDR)
        server = RamCloudServer(memory_bytes=64 * 1024 * 1024)
        store = RamCloudStore(env, fabric, "hypervisor", "kv-server", server)
        for key in KEYS:
            server.write(store.table_id, key, f"page-{key}", 4096)
    else:
        fabric.connect("hypervisor", "kv-server", IPOIB)
        server = MemcachedServer(memory_bytes=8 * 1024 * 1024)
        store = MemcachedStore(env, fabric, "hypervisor", "kv-server", server)
        for key in KEYS:
            server.set(key, f"page-{key}", 4096)
    return env, fabric, store


def run_both(kind, script):
    """Run ``script(env, store, log)`` fast-path-off then on."""
    outcomes = {}
    for fast in (False, True):
        previous = set_fastpath(fast)
        try:
            env, fabric, store = make_store(kind)
            log = []
            script(env, store, log)
            env.run()
        finally:
            set_fastpath(previous)
        outcomes[fast] = (
            log,
            env.now,
            store.counters.as_dict(),
            fabric._rng.getstate(),
        )
        if fast:
            counters = fabric.counters
    assert outcomes[True] == outcomes[False]
    return counters


def await_read(env, handle, log):
    def waiter():
        try:
            value = yield handle.event
        except KeyNotFoundError as exc:
            log.append(("missing", handle.key, env.now, str(exc)))
            return
        log.append(("read", handle.key, env.now, value))

    env.process(waiter())


@pytest.mark.parametrize("kind", ["ramcloud", "memcached"])
def test_single_read_completes_at_the_driver_time(kind):
    def script(env, store, log):
        await_read(env, store.read_async(KEYS[0]), log)

    counters = run_both(kind, script)
    assert counters["inline_rpcs"] == 1


@pytest.mark.parametrize("kind", ["ramcloud", "memcached"])
def test_one_step_burst_queues_behind_the_inline_hold(kind):
    """Several reads plus a batched write issued in one step: the first
    read goes inline, the rest fall back to drivers that queue behind
    its NIC hold exactly as behind a granular driver's."""

    def script(env, store, log):
        handles = [store.read_async(key) for key in KEYS[:3]]

        def writer():
            yield from store.multi_write(
                [(100 + i, f"w{i}", 4096) for i in range(8)]
            )
            log.append(("written", env.now))

        env.process(writer())
        for handle in handles:
            await_read(env, handle, log)

    counters = run_both(kind, script)
    assert counters["inline_rpcs"] == 1
    assert counters["refused_nic_busy"] == 2


@pytest.mark.parametrize("kind", ["ramcloud", "memcached"])
def test_read_during_a_serializing_multi_write(kind):
    """A read issued while a write-back multi_write holds the NIC falls
    back and queues; a read issued once the NIC is free goes inline."""

    def script(env, store, log):
        def writer():
            yield from store.multi_write(
                [(200 + i, f"w{i}", 4096) for i in range(32)]
            )
            log.append(("written", env.now))

        def reader():
            yield env.timeout(0.5)  # mid-serialization
            await_read(env, store.read_async(KEYS[0]), log)
            yield env.timeout(500.0)  # long after the write
            await_read(env, store.read_async(KEYS[1]), log)

        env.process(writer())
        env.process(reader())

    counters = run_both(kind, script)
    assert counters["refused_nic_busy"] >= 1
    assert counters["inline_rpcs"] == 1


@pytest.mark.parametrize("kind", ["ramcloud", "memcached"])
def test_event_inside_serialization_keeps_the_driver(kind):
    """An event due before the read finishes serializing runs ahead of
    the driver's draws; here it draws from ``net.fabric`` itself, so
    drawing the read's samples at issue time would reorder the stream."""

    def script(env, store, log):
        def sampler():
            yield env.timeout(0.001)
            log.append(("sampled", store.fabric.sample_one_way(
                "hypervisor", "kv-server", 64)))

        env.process(sampler())

        def reader():
            yield env.timeout(0.0)
            await_read(env, store.read_async(KEYS[0]), log)

        env.process(reader())

    counters = run_both(kind, script)
    assert counters["refused_heap_window"] == 1
    assert counters["inline_rpcs"] == 0


@pytest.mark.parametrize("kind", ["ramcloud", "memcached"])
def test_missing_key_fails_at_the_same_time_with_the_same_error(kind):
    def script(env, store, log):
        def reader():
            yield env.timeout(5.0)
            await_read(env, store.read_async(999), log)

        env.process(reader())

    counters = run_both(kind, script)
    assert counters["inline_rpcs"] == 0


def test_memcached_lru_touch_only_when_the_inline_read_commits():
    """The driver's LRU touch happens on the inline path too, and a
    refused attempt does not touch at all (peek is side-effect free)."""
    env, fabric, store = make_store("memcached")
    server = store.server
    store.read_async(KEYS[0])
    assert fabric.counters["inline_rpcs"] == 1
    chunk = server._index[KEYS[0]]
    assert next(reversed(server._classes[chunk].items)) == KEYS[0]
    store.read_async(KEYS[1])  # NIC held: falls back, driver not run yet
    assert next(reversed(server._classes[chunk].items)) == KEYS[0]
    env.run()
    assert next(reversed(server._classes[chunk].items)) == KEYS[1]


def test_subclass_overriding_get_keeps_the_driver():
    class Tracing(RamCloudStore):
        def get(self, key, _async=False):
            value = yield from super().get(key, _async=_async)
            return value

    env = Environment()
    fabric = Fabric(env, RandomStreams(seed=3))
    fabric.add_host("hypervisor")
    fabric.add_host("kv-server")
    fabric.connect("hypervisor", "kv-server", RDMA_FDR)
    server = RamCloudServer(memory_bytes=64 * 1024 * 1024)
    store = Tracing(env, fabric, "hypervisor", "kv-server", server)
    server.write(store.table_id, 1, "v", 4096)
    handle = store.read_async(1)
    env.run()
    assert handle.event.value == "v"
    assert fabric.counters.as_dict() == {}

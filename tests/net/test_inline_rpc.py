"""``Fabric.inline_rpc``: the process-free twin of ``Fabric.rpc``.

The method must either return exactly the completion time a freshly
spawned ``rpc`` process would reach — drawing the same two samples from
``net.fabric`` — or refuse, drawing nothing and holding nothing
(DESIGN.md §17).  Each guard has its own refusal counter.
"""

import pytest

from repro.check.explorer import SCHEDULES
from repro.net import Fabric, IPOIB, RDMA_FDR
from repro.sim import Environment, RandomStreams, set_fastpath


def make_fabric(transport=RDMA_FDR, seed=11):
    env = Environment()
    fabric = Fabric(env, RandomStreams(seed=seed))
    fabric.add_host("hypervisor")
    fabric.add_host("server")
    fabric.connect("hypervisor", "server", transport)
    return env, fabric


def refused(fabric, env, reason):
    """Assert one refusal for ``reason`` that drew and held nothing."""
    state = fabric._rng.getstate()
    assert fabric.inline_rpc("hypervisor", "server", 64, 4128, 1.8) is None
    assert fabric.counters[f"refused_{reason}"] == 1
    assert fabric.counters["inline_rpcs"] == 0
    assert fabric._rng.getstate() == state
    assert fabric.host("hypervisor").nic_busy_until == 0.0


@pytest.mark.parametrize("transport", [RDMA_FDR, IPOIB])
@pytest.mark.parametrize("start", [0.0, 3.25])
def test_completion_matches_a_spawned_rpc_bit_for_bit(transport, start):
    env, fabric = make_fabric(transport)
    twin_env, twin = make_fabric(transport)
    for e in (env, twin_env):
        e.sync_to(start)
    done = fabric.inline_rpc("hypervisor", "server", 64, 4128, 1.8)
    twin_env.process(twin.rpc("hypervisor", "server", 64, 4128, 1.8))
    twin_env.run()
    assert done == twin_env.now
    assert fabric._rng.getstate() == twin._rng.getstate()
    assert fabric.counters["inline_rpcs"] == 1
    # The NIC counts as held for exactly the serialization interval.
    assert fabric.host("hypervisor").nic_busy_until == (
        start + transport.serialization_us(64)
    )


def test_rpc_queues_behind_an_inline_hold_like_behind_a_granular_one():
    """A second sender in the same step waits for the hold's release
    instant, exactly as it would queue behind a granular rpc's NIC."""
    results = {}
    for mode in ("granular", "inline"):
        env, fabric = make_fabric(seed=4)
        ends = []

        def sender(tag):
            yield from fabric.rpc("hypervisor", "server", 131072, 64, 2.2)
            ends.append((tag, env.now))

        def reader_driver():
            yield from fabric.rpc("hypervisor", "server", 64, 4128, 1.8)
            ends.append(("read", env.now))

        if mode == "granular":
            env.process(reader_driver())
        else:
            done = fabric.inline_rpc("hypervisor", "server", 64, 4128, 1.8)
            env.timeout_at(done).callbacks.append(
                lambda _e: ends.append(("read", env.now))
            )
        env.process(sender("w1"))
        env.process(sender("w2"))
        env.run()
        results[mode] = (sorted(ends), fabric._rng.getstate())
    assert results["inline"] == results["granular"]


def test_refuses_with_fastpath_switch_off():
    env, fabric = make_fabric()
    previous = set_fastpath(False)
    try:
        refused(fabric, env, "switch_off")
    finally:
        set_fastpath(previous)


@pytest.mark.parametrize("name", sorted(SCHEDULES))
def test_refuses_under_every_schedule_policy(name):
    env, fabric = make_fabric()
    env.scheduler = SCHEDULES[name](seed=0)
    refused(fabric, env, "scheduler")


def test_refuses_under_an_until_cap():
    env, fabric = make_fabric()
    outcome = []

    def prober():
        state = fabric._rng.getstate()
        outcome.append(
            fabric.inline_rpc("hypervisor", "server", 64, 4128, 1.8)
        )
        outcome.append(fabric._rng.getstate() == state)
        yield env.timeout(1.0)

    env.process(prober())
    env.run(until=100.0)
    assert outcome == [None, True]
    assert fabric.counters["refused_until_cap"] == 1


def test_refuses_while_the_nic_is_held():
    env, fabric = make_fabric()
    nic = fabric.host("hypervisor").nic
    token = nic.try_acquire()
    refused(fabric, env, "nic_busy")
    nic.release(token)


def test_refuses_during_another_inline_hold():
    env, fabric = make_fabric()
    assert fabric.inline_rpc("hypervisor", "server", 64, 4128, 1.8)
    held = fabric.host("hypervisor").nic_busy_until
    state = fabric._rng.getstate()
    assert fabric.inline_rpc("hypervisor", "server", 64, 4128, 1.8) is None
    assert fabric.counters["refused_nic_busy"] == 1
    assert fabric._rng.getstate() == state
    assert fabric.host("hypervisor").nic_busy_until == held


def test_refuses_on_a_multi_queue_nic():
    env = Environment()
    fabric = Fabric(env, RandomStreams(seed=11))
    fabric.add_host("hypervisor", nic_queues=2)
    fabric.add_host("server")
    fabric.connect("hypervisor", "server", RDMA_FDR)
    refused(fabric, env, "nic_busy")


def test_refuses_when_an_event_falls_inside_serialization():
    env, fabric = make_fabric()
    env.timeout(0.0)  # due now: the spawned rpc would not run first
    refused(fabric, env, "heap_window")


def test_unknown_link_falls_back_without_a_counter():
    env, fabric = make_fabric()
    fabric.add_host("elsewhere")
    assert fabric.inline_rpc("hypervisor", "elsewhere", 64, 64) is None
    assert fabric.counters.as_dict() == {}

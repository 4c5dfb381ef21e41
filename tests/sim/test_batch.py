"""Unit contracts for the engine primitives the process-free paths
stand on (DESIGN.md §17): ``Store.put_nowait``'s single-getter hand-off
and ``Environment.timeout_at``'s exact absolute deadline.  The
byte-identical ``--metrics`` pins live in
``tests/bench/test_wallclock_determinism.py``; these are the unit-level
contracts.
"""

import pytest

from repro.sim import Environment, Store


@pytest.fixture
def env():
    return Environment()


# -- put_nowait single-getter hand-off ---------------------------------------


def test_put_nowait_serves_single_waiting_getter(env):
    store = Store(env)
    received = []

    def consumer():
        item = yield store.get()
        received.append(item)

    env.process(consumer())
    env.run()  # parks the consumer on the empty store
    store.put_nowait("payload")
    env.run()
    assert received == ["payload"]
    assert not store.items


def test_put_nowait_hand_off_matches_general_dispatch(env):
    """Two getters (the non-fast shape) drain in FIFO order, same as
    the single-getter hand-off would chain."""
    store = Store(env)
    received = []

    def consumer(tag):
        item = yield store.get()
        received.append((tag, item))

    env.process(consumer("first"))
    env.process(consumer("second"))
    env.run()
    store.put_nowait(1)
    store.put_nowait(2)
    env.run()
    assert received == [("first", 1), ("second", 2)]


# -- timeout_at --------------------------------------------------------------


def test_timeout_at_lands_on_the_exact_absolute_time(env):
    env.advance(0.1)
    when = 0.1 + 0.2
    fired = []
    env.timeout_at(when).callbacks.append(lambda _e: fired.append(env.now))
    env.run()
    assert fired == [when]


def test_timeout_at_rejects_the_past(env):
    env.advance(2.0)
    with pytest.raises(Exception, match="in the past"):
        env.timeout_at(1.0)

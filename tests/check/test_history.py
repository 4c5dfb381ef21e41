"""The KV history checker: read-your-writes / no-stale-read-after-ack.

Covers the :class:`KvHistory` decision table directly, then the
:class:`RecordingStore` wrapper over a deliberately stale backend, and
finally the regression the checker motivated: a recovered
:class:`ReplicatedStore` replica that missed writes during its crash
window must never serve its pre-outage values.
"""

import pytest

from repro.check import CorrectnessChecker, KvHistory, RecordingStore
from repro.errors import InvariantViolation
from repro.faults import FaultKind, FaultPlan, FaultWindow, FaultyStore
from repro.kv import DramStore, ReplicatedStore
from repro.sim import Environment


def run(env, gen):
    proc = env.process(gen)
    env.run()
    return proc.value


# ------------------------------------------------------------- KvHistory

def test_read_after_ack_must_see_the_write():
    check = CorrectnessChecker(enabled=True)
    history = KvHistory(check)
    v1, v2 = object(), object()
    history.record_ack(1, v1, now=10.0)
    history.record_ack(1, v2, now=20.0)
    # Read starting after v2's ack returning v1 is stale.
    with pytest.raises(InvariantViolation) as excinfo:
        history.check_read(1, v1, started_us=25.0, now=26.0)
    assert "stale read" in str(excinfo.value)
    # Returning v2 is correct.
    history.check_read(1, v2, started_us=25.0, now=26.0)


def test_read_overlapping_a_write_may_see_either():
    check = CorrectnessChecker(enabled=True)
    history = KvHistory(check)
    v1, v2 = object(), object()
    history.record_ack(1, v1, now=10.0)
    history.record_ack(1, v2, now=20.0)
    # A read that began at t=15 overlaps v2's ack: both values legal.
    history.check_read(1, v1, started_us=15.0, now=22.0)
    history.check_read(1, v2, started_us=15.0, now=22.0)
    assert check.violations == []


def test_read_overlapping_an_unacked_put_may_see_it():
    """The kv campaign's false positive: a put invoked before the read
    ended but acked only after it is in flight during the read."""
    check = CorrectnessChecker(enabled=True)
    history = KvHistory(check)
    old, new = object(), object()
    history.record_ack(1, old, now=10.0)
    history.record_invoke(1, new, now=19.0)
    history.check_read(1, new, started_us=20.0, now=21.0)
    history.check_read(1, old, started_us=20.0, now=21.0)
    history.record_ack(1, new, now=22.0)
    assert check.violations == []
    # Once acked before a read begins, the put is the floor.
    with pytest.raises(InvariantViolation) as excinfo:
        history.check_read(1, old, started_us=23.0, now=24.0)
    assert "stale read" in str(excinfo.value)


def test_value_of_a_put_invoked_after_the_read_is_flagged():
    check = CorrectnessChecker(enabled=True)
    history = KvHistory(check)
    old, new = object(), object()
    history.record_ack(1, old, now=10.0)
    history.record_invoke(1, new, now=30.0)
    with pytest.raises(InvariantViolation) as excinfo:
        history.check_read(1, new, started_us=20.0, now=21.0)
    assert "no acked or" in str(excinfo.value)


class _SlowAckStore(DramStore):
    """Applies a put at once but acknowledges it only later, like a
    replicated write still waiting on its slowest replica."""

    def put(self, key, value, nbytes=4096):
        self._insert(key, value, nbytes)
        yield self.env.timeout(50.0)


def test_recording_store_accepts_a_read_overlapping_an_unacked_put():
    env = Environment()
    check = CorrectnessChecker(enabled=True)
    store = RecordingStore(_SlowAckStore(env), check)
    old, new = object(), object()
    run(env, store.put(1, old))
    seen = []

    def writer(env):
        yield from store.put(1, new)

    def reader(env):
        seen.append((yield from store.get(1)))

    env.process(writer(env))
    env.process(reader(env))
    env.run()
    assert seen == [new]
    assert store.history.reads_checked == 1
    assert check.violations == []


def test_unknown_value_is_flagged():
    check = CorrectnessChecker(enabled=True)
    history = KvHistory(check)
    history.record_ack(1, object(), now=10.0)
    with pytest.raises(InvariantViolation) as excinfo:
        history.check_read(1, object(), started_us=12.0, now=13.0)
    assert "no acked or" in str(excinfo.value)


def test_read_after_acked_remove_is_flagged():
    check = CorrectnessChecker(enabled=True)
    history = KvHistory(check)
    store = RecordingStore(DramStore(Environment()), check)
    value = object()
    history = store.history
    env = store.env
    run(env, store.put(1, value))
    run(env, store.remove(1))
    # Simulate a stale layer resurrecting the removed value.
    with pytest.raises(InvariantViolation) as excinfo:
        history.check_read(1, value, started_us=env.now + 1,
                           now=env.now + 2)
    assert "removed" in str(excinfo.value)


def test_unwritten_keys_are_unconstrained():
    check = CorrectnessChecker(enabled=True)
    history = KvHistory(check)
    history.check_read(99, object(), started_us=0.0, now=1.0)
    assert check.violations == []


# -------------------------------------------------- RecordingStore wiring

class _StaleStore(DramStore):
    """A DRAM store that keeps serving each key's FIRST value."""

    def __init__(self, env):
        super().__init__(env)
        self._first = {}

    def put(self, key, value, nbytes=4096):
        self._first.setdefault(key, value)
        yield from super().put(key, value, nbytes)

    def get(self, key):
        yield from super().get(key)
        return self._first[key]


def test_recording_store_catches_a_stale_backend():
    env = Environment()
    check = CorrectnessChecker(enabled=True)
    store = RecordingStore(_StaleStore(env), check)
    v1, v2 = object(), object()
    run(env, store.put(1, v1))
    run(env, store.put(1, v2))

    def read(env):
        yield from store.get(1)

    env.process(read(env))
    with pytest.raises(InvariantViolation):
        env.run()
    assert store.history.reads_checked == 1


def test_recording_store_is_transparent_when_disabled():
    env = Environment()
    store = RecordingStore(_StaleStore(env))  # NULL_CHECKER
    v1, v2 = object(), object()
    run(env, store.put(1, v1))
    run(env, store.put(1, v2))
    assert run(env, store.get(1)) is v1  # stale, but nobody checks
    assert store.history.reads_checked == 0


# ------------------------------------- ReplicatedStore stale-replica fix

def _crashy_replicated(env, start, end):
    plan = FaultPlan(
        [FaultWindow(FaultKind.CRASH, "replica0", start, end)], seed=0
    )
    replicas = [
        FaultyStore(env, DramStore(env), plan, node=f"replica{i}")
        for i in range(2)
    ]
    return ReplicatedStore(env, replicas), replicas


def test_recovered_replica_never_serves_pre_outage_values():
    """Regression: replica0 misses a write during its crash window;
    after recovery, reads must skip it for that key (the stale mark)
    rather than serve the old value in replica-index order."""
    env = Environment()
    check = CorrectnessChecker(enabled=True)
    inner, replicas = _crashy_replicated(env, 100.0, 200.0)
    store = RecordingStore(inner, check)
    v1, v2 = object(), object()

    def scenario(env):
        yield from store.put(1, v1)         # both replicas hold v1
        yield env.timeout(150.0)
        yield from store.put(1, v2)         # replica0 down: misses v2
        yield env.timeout(200.0)            # replica0 back up
        value = yield from store.get(1)     # must NOT be replica0's v1
        return value

    assert run(env, scenario(env)) is v2
    assert check.violations == []
    assert replicas[0].contains(1)          # the stale copy is there...
    assert inner.contains(1)


def test_stale_mark_clears_after_rewrite():
    env = Environment()
    inner, replicas = _crashy_replicated(env, 100.0, 200.0)

    def scenario(env):
        yield from inner.put(1, "v1")
        yield env.timeout(150.0)
        yield from inner.put(1, "v2")       # replica0 stale for key 1
        yield env.timeout(200.0)
        yield from inner.put(1, "v3")       # lands on both: mark clears
        value = yield from inner.get(1)
        return value

    assert run(env, scenario(env)) == "v3"
    # After the rewrite both replicas agree again.
    assert all(r.contains(1) for r in replicas)

"""One fault-service path runs in every monitor configuration.

``Monitor._service_fault`` serves every fault: one handler or four, no
schedule policy or any of the explorer's policies.  These pins hash
the full pmbench snapshot (clock, counters, raw latency samples, fabric
RNG state) of each configuration and compare it with digests recorded
when a separate granular handler chain still served the concurrent
and policy-driven cases.  So the schedule explorer exercises the
default code, and no simulated byte moved when the chain was deleted.
"""

import hashlib
import json

import pytest

from repro.bench import build_platform
from repro.check.explorer import SCHEDULES, make_schedule
from repro.core import FluidMemConfig
from repro.workloads import Pmbench, PmbenchConfig
from tests.core.test_inline_read_equivalence import MEASURED, snapshot

SEED = 3

NO_POLICY_1 = (
    "12892604c1cdda64599d4549abc5766fd622187772eab75923cb542759a8f5a0"
)
NO_POLICY_4 = (
    "c917a2e3ec9905a3c69248379a89eeaecff0c0a3b741f1e9d3c008534e800a1a"
)

#: sha256 of the snapshot per (fault_handlers, policy).  FIFO, random
#: and inverted tie-breaking find no same-time ties to reorder in this
#: run; the adversarial policy stretches delays and does move it.
DIGESTS = {
    (1, None): NO_POLICY_1,
    (1, "fifo"): NO_POLICY_1,
    (1, "inverted"): NO_POLICY_1,
    (1, "random"): NO_POLICY_1,
    (1, "adversarial"): (
        "bb85b67c29998120a49d5dab6c4c5b047d7114639e407ae33410f2961dd5dbea"
    ),
    (4, None): NO_POLICY_4,
    (4, "fifo"): NO_POLICY_4,
    (4, "inverted"): NO_POLICY_4,
    (4, "random"): NO_POLICY_4,
    (4, "adversarial"): (
        "13f309d678c8e42287b8f8d25c81b92386889fef6289414e885ca5c4acbedc12"
    ),
}


def snapshot_digest(handlers, policy):
    platform = build_platform(
        "fluidmem-ramcloud", seed=SEED,
        fluidmem_config=FluidMemConfig(fault_handlers=handlers),
    )
    if policy is not None:
        platform.env.scheduler = make_schedule(policy, SEED)
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
    state = snapshot(platform, result)
    text = json.dumps(state, sort_keys=True, default=repr)
    return hashlib.sha256(text.encode()).hexdigest()


def test_every_schedule_policy_is_pinned():
    assert {policy for _, policy in DIGESTS} == {None, *SCHEDULES}


@pytest.mark.parametrize("policy", [None, *sorted(SCHEDULES)])
@pytest.mark.parametrize("handlers", [1, 4])
def test_snapshot_matches_the_recorded_digest(handlers, policy):
    assert snapshot_digest(handlers, policy) == DIGESTS[handlers, policy]

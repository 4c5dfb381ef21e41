"""Byte pins for both tick-level fleet models.

The scenario fleet (``repro.scenario.workloads``) and the market fleet
(``repro.market.fleet``) share one access kernel: second-chance
eviction through ``ActiveInactiveLists.evict_to`` and per-tick Zipfian
draws through ``ZipfianGenerator.next_many``.  These hashes were
recorded on the per-access / per-fault code those kernels replaced, so
they pin that the replacement moved no simulated byte.  Every pattern
kind, surges, crashes and harvest shrinks are exercised.
"""

import hashlib
import json

import pytest

from repro.bench.market_fleet import market_chaos_plan, market_specs
from repro.check import CorrectnessChecker
from repro.market import Broker, HarvestConfig, MarketFleet, QosManager
from repro.scenario import run_scenario, validate_document
from repro.sim import Environment, RandomStreams, derive_seed

TICK_US = 10_000.0

SCENARIO_SHA256 = {
    3: (
        "30d7eafc8ca319cc70fb332b79ab7e9b"
        "652ffcb70cd2a31adf519750b01b2ca2"
    ),
    7: (
        "6f363c81e7562ed43533d971e052a379"
        "b81b2ed7fe69b2f72a5669b9ef72cdbd"
    ),
    42: (
        "b2a100325f25fb139609133f5efa37a1"
        "80d28ff8e27ade9bff0642f0e8ea0baa"
    ),
}

MARKET_SHA256 = {
    3: (
        "4435767469a34deda8fe72b1326efab0"
        "8cf4c77cf0841d21a31a614eb7be09f0"
    ),
    7: (
        "fe2788dd6f1b8ebf4e56e01d11321c0c"
        "d1a2fbc618b10480a5f53fea5c2b7f6d"
    ),
    42: (
        "319f5040ad8cb9c8b63f14e67dd76f3a"
        "5d92dbb0140396c810615e7c6dcdb725"
    ),
}


def _sha256(value) -> str:
    text = json.dumps(value, sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


def fleet_document(seed):
    load = {
        "kind": "diurnal", "period_ticks": 24, "peak_multiplier": 3.0,
        "spikes": [{"at_tick": 10, "multiplier": 2.0, "duration_ticks": 3}],
    }
    return {
        "schema": "repro-scenario/1",
        "name": f"fleet-pin-{seed}",
        "kind": "fleet",
        "seed": seed,
        "duration": {"ticks": 48, "tick_us": TICK_US},
        "topology": {"block_vms": 4},
        "workload": {"tenants": [
            {"name": "web", "vms": 6, "footprint_pages": 256,
             "capacity_pages": 96, "accesses_per_tick": 24,
             "pattern": {"kind": "zipfian", "theta": 0.99},
             "load": load},
            {"name": "kv", "vms": 4, "footprint_pages": 192,
             "capacity_pages": 64, "accesses_per_tick": 20,
             "pattern": {"kind": "mixed", "theta": 0.8,
                         "zipf_fraction": 0.7}},
            {"name": "scan", "vms": 4, "footprint_pages": 128,
             "capacity_pages": 48, "accesses_per_tick": 16,
             "pattern": {"kind": "uniform"}},
            {"name": "trainer", "vms": 4, "footprint_pages": 256,
             "capacity_pages": 64, "accesses_per_tick": 24,
             "pattern": {"kind": "sweep", "stride": 3,
                         "shuffle_every_ticks": 8}},
        ]},
        "faults": {"crash_fraction": 0.2, "surge_fraction": 0.3},
        "checks": {"invariants": True},
    }


def market_outputs(seed):
    ticks = 30
    specs = market_specs(1)
    env = Environment()
    check = CorrectnessChecker(enabled=True)
    broker = Broker(env, check=check)
    fleet = MarketFleet(
        env, specs, RandomStreams(derive_seed(seed, "market")),
        broker, QosManager(),
        fault_plan=market_chaos_plan(specs, seed, ticks, TICK_US),
        harvest_config=HarvestConfig(
            interval_us=3 * TICK_US,
            spike_rate_per_ms=1.0,
            calm_rate_per_ms=0.4,
        ),
    )
    proc = env.process(
        fleet.run(ticks, tick_us=TICK_US, market_every=3, check=check)
    )
    env.run()
    assert proc.ok
    assert not check.violations
    return {
        "tenants": fleet.tenant_summary(),
        "broker": broker.counters.as_dict(),
    }


@pytest.mark.parametrize("seed", sorted(SCENARIO_SHA256))
def test_scenario_fleet_report_bytes_pinned(seed):
    scenario = validate_document(fleet_document(seed))
    report = run_scenario(scenario, workers=1, partitions=1).report
    assert _sha256(report) == SCENARIO_SHA256[seed]


@pytest.mark.parametrize("seed", sorted(MARKET_SHA256))
def test_market_fleet_summary_bytes_pinned(seed):
    assert _sha256(market_outputs(seed)) == MARKET_SHA256[seed]

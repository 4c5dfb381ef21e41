"""The four workloads: each a fixed batch of simulated work.

Every workload has two steps.  ``prepare(seed)`` builds what the run
needs -- the booted platform, the constructed fleet, the validated
scenario -- and is the set-up that ``setup_s`` times in a fresh
interpreter.  ``execute(state)`` runs the batch to completion (closed:
no arrival schedule), timing only the program's run, and returns a
:class:`Batch` with the accesses done, the exact counts and simulated
values the run produced, and any output check that failed.

The program is driven only through public entry points, with its pools
serial (one worker, one partition).  Every input comes from the seed.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
import time
from dataclasses import dataclass, field
from types import SimpleNamespace
from typing import Dict, List

from repro.bench.fig3_latency_cdf import PAPER_FIG3_AVERAGES_US
from repro.bench.market_fleet import market_specs
from repro.bench.platform import build_platform
from repro.check import CorrectnessChecker
from repro.errors import ScenarioError
from repro.faults import FaultKind, FaultPlan, FaultWindow
from repro.market import Broker, HarvestConfig, MarketFleet, QosManager
from repro.scenario import run_scenario, validate_document, validate_report
from repro.sim import Environment, RandomStreams, derive_seed
from repro.workloads import Pmbench, PmbenchConfig

#: The paper's local-DRAM scale: 1 GiB -> 1 MiB (256 pages).
MEMORY_SCALE = 1.0 / 1024
#: Working set over local DRAM (the paper's 4 GiB over 1 GiB).
PMBENCH_WSS_OVER_DRAM = 4.0
#: Measured accesses after warm-up: over 10,000 so p99.9 has at least
#: ten samples beyond it, under the recorders' 500,000-sample retention
#: so the percentiles cover the whole run.
PMBENCH_MEASURED = 12_000

#: Market fleet: 2 units of 112 VMs for 60 ticks of 10 ms.
MARKET_FLEET_SCALE = 2
MARKET_TICKS = 60
MARKET_TICK_US = 10_000.0
#: Chaos: this share of all VMs crash, this share of producers surge.
MARKET_CRASH_SHARE = 0.03
MARKET_SURGE_SHARE = 0.06

#: Scenario fleet length (ticks of 10 ms).
SCENARIO_TICKS = 96


@dataclass
class Batch:
    """One completed batch."""

    accesses: int
    seconds: float
    counts: Dict[str, float]
    sim: Dict[str, float] = field(default_factory=dict)
    #: Everything the digest covers (counts, sim values, raw counters).
    outputs: Dict[str, object] = field(default_factory=dict)
    problems: List[str] = field(default_factory=list)

    @property
    def digest(self) -> str:
        return output_digest(self.outputs)


def output_digest(outputs: Dict[str, object]) -> str:
    """A short hash of a run's simulated outputs (counts, sim values)."""
    text = json.dumps(outputs, sort_keys=True, default=repr)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def nearest_rank(sorted_samples: List[float], fraction: float) -> float:
    """The nearest-rank percentile: the ceil(fraction * n)-th smallest."""
    if not sorted_samples:
        raise ValueError("no samples")
    rank = max(1, math.ceil(fraction * len(sorted_samples)))
    return sorted_samples[rank - 1]


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


# ---------------------------------------------------------------------------
# pmbench on one platform
# ---------------------------------------------------------------------------

class PmbenchWorkload:
    """pmbench (uniform random, 50% reads, warm-up first) on a platform."""

    def __init__(self, platform: str) -> None:
        self.platform = platform

    def prepare(self, seed: int):
        return build_platform(
            self.platform, memory_scale=MEMORY_SCALE, seed=seed
        )

    def execute(self, platform) -> Batch:
        wss_pages = platform.shape.wss_pages(PMBENCH_WSS_OVER_DRAM)
        bench = Pmbench(
            platform.env, platform.port, platform.workload_base,
            PmbenchConfig(
                wss_pages=wss_pages, read_ratio=0.5,
                measured_accesses=PMBENCH_MEASURED,
            ),
            rng=platform.streams.stream("pmbench"),
        )
        start = time.perf_counter()
        result = platform.run(bench.run())
        platform.drain_writebacks()
        seconds = time.perf_counter() - start

        reads, writes = result.read_latency, result.write_latency
        measured = result.hits + result.faults
        problems = []
        if measured != PMBENCH_MEASURED:
            problems.append(
                f"completed {measured} measured accesses of "
                f"{PMBENCH_MEASURED} attempted"
            )
        samples = sorted(list(reads.samples) + list(writes.samples))
        if len(samples) != reads.count + writes.count:
            problems.append(
                f"recorders kept {len(samples)} of "
                f"{reads.count + writes.count} samples"
            )
        if not samples:
            problems.append("no latency samples recorded")
            samples = [0.0]
        # Mean from the two recorders (a single-direction run has an
        # empty recorder, whose mean must not be used).
        total = reads.count + writes.count
        mean_us = (
            (reads.mean * reads.count if reads.count else 0.0)
            + (writes.mean * writes.count if writes.count else 0.0)
        ) / max(1, total)
        paper = PAPER_FIG3_AVERAGES_US[self.platform]
        sim = {
            "sim_lat_p50_us": nearest_rank(samples, 0.50),
            "sim_lat_p999_us": nearest_rank(samples, 0.999),
            "sim_lat_samples": len(samples),
            "sim_lat_mean_us": mean_us,
            "paper_err_pct": 100.0 * abs(mean_us - paper) / paper,
        }
        counts: Dict[str, float] = {
            "sim.sim_ms": platform.env.now / 1000.0,
        }
        outputs: Dict[str, object] = {
            "hits": result.hits, "faults": result.faults,
            "warmup_us": result.warmup_time_us,
            "measured_us": result.measured_time_us,
        }
        if platform.monitor is not None:
            monitor = platform.monitor
            mc = monitor.counters
            wb = monitor.writeback.counters
            kv = platform.store.counters
            ops = monitor.ops.counters
            if kv["writes"] != wb["flushed"]:
                problems.append(
                    f"store took {kv['writes']} writes but write-back "
                    f"flushed {wb['flushed']}"
                )
            counts.update({
                "core.faults": mc["faults"],
                "core.zero_fills": mc["zero_page_faults"],
                "core.remote_reads": mc["remote_reads"],
                "core.evictions": mc["evictions"],
                "core.steals": (mc["steals_resolved_locally"]
                                + mc["steals_after_wait"]),
                "core.hit_ratio": _ratio(result.hits, measured),
                "core.wb_batches": wb["batches"],
                "core.wb_pages_per_batch": _ratio(wb["flushed"],
                                                  wb["batches"]),
                "kernel.uffd.remaps": ops["remap"],
                "kernel.uffd.copies": ops["copy"],
                "kv.reads": kv["reads"],
                "kv.writes": kv["writes"],
                "kv.multi_writes": kv["multi_writes"],
            })
            outputs["counters"] = {
                "monitor": mc.as_dict(), "writeback": wb.as_dict(),
                "store": kv.as_dict(), "uffd_ops": ops.as_dict(),
            }
        else:
            mm = platform.mm
            swap = mm.swap.counters
            dev = platform.swap_device.counters
            counts.update({
                "kernel.swap.major_faults": mm.counters["major_faults"],
                "kernel.swap.reclaimed": mm.counters["reclaimed"],
                "kernel.swap.direct_reclaims":
                    mm.counters["direct_reclaims"],
                "kernel.swap.swap_ins": swap["swapped_in"],
                "kernel.swap.swap_outs": swap["swapped_out"],
                "kernel.swap.cache_hit_ratio": _ratio(
                    swap["swap_cache_hits"],
                    swap["swap_cache_hits"] + swap["swapped_in"],
                ),
                "blockdev.reads": dev["reads"],
                "blockdev.writes": dev["writes"],
            })
            outputs["counters"] = {
                "mm": mm.counters.as_dict(), "swap": swap.as_dict(),
                "device": dev.as_dict(),
            }
        outputs["counts"] = counts
        outputs["sim"] = sim
        return Batch(
            accesses=wss_pages + measured, seconds=seconds,
            counts=counts, sim=sim, outputs=outputs, problems=problems,
        )


# ---------------------------------------------------------------------------
# the market fleet
# ---------------------------------------------------------------------------

def market_chaos(specs, seed: int) -> FaultPlan:
    """Seeded fleet chaos with fixed counts of crashes and surges.

    The windows follow ``run_market``'s chaos plan (CRASH on a VM name
    is a fail-stop and cold reboot, SLOW on ``surge:<name>`` a demand
    surge, both in the middle of the run), but the seed picks *which*
    VMs and *when*, never *how many*, so every seed asks for about the
    same work.
    """
    rng = random.Random(derive_seed(seed, "e2ebench-market"))
    horizon = MARKET_TICKS * MARKET_TICK_US
    names = [f"{spec.name}-{index:03d}"
             for spec in specs for index in range(spec.vms)]
    producers = [f"{spec.name}-{index:03d}"
                 for spec in specs if spec.role == "producer"
                 for index in range(spec.vms)]
    windows = []
    for name in rng.sample(names, round(MARKET_CRASH_SHARE * len(names))):
        start = rng.uniform(0.2, 0.5) * horizon
        end = start + rng.uniform(0.1, 0.25) * horizon
        windows.append(FaultWindow(FaultKind.CRASH, name, start,
                                   min(end, horizon * 0.9)))
    for name in rng.sample(producers,
                           round(MARKET_SURGE_SHARE * len(producers))):
        start = rng.uniform(0.3, 0.6) * horizon
        end = start + rng.uniform(0.15, 0.3) * horizon
        windows.append(FaultWindow(FaultKind.SLOW, f"surge:{name}", start,
                                   min(end, horizon * 0.95), param=10.0))
    return FaultPlan(windows, seed=seed)


class MarketWorkload:
    """The tick-level marketplace, wired as ``run_market`` wires it."""

    def prepare(self, seed: int):
        specs = market_specs(MARKET_FLEET_SCALE)
        env = Environment()
        check = CorrectnessChecker(enabled=True)
        broker = Broker(env, check=check)
        fleet = MarketFleet(
            env, specs, RandomStreams(derive_seed(seed, "market")),
            broker, QosManager(),
            fault_plan=market_chaos(specs, seed),
            harvest_config=HarvestConfig(
                interval_us=3 * MARKET_TICK_US,
                spike_rate_per_ms=1.0,
                calm_rate_per_ms=0.4,
            ),
        )
        return SimpleNamespace(env=env, check=check, broker=broker,
                               fleet=fleet)

    def execute(self, state) -> Batch:
        env, fleet, broker = state.env, state.fleet, state.broker
        start = time.perf_counter()
        proc = env.process(fleet.run(
            MARKET_TICKS, tick_us=MARKET_TICK_US, market_every=3,
            check=state.check,
        ))
        env.run()
        seconds = time.perf_counter() - start
        if not proc.ok:
            raise proc.value

        problems = []
        accesses = 0
        for vm in fleet.vms:
            stats = vm.stats
            accesses += stats.hits + stats.faults
            classified = (stats.first_touches + stats.remote_hits
                          + stats.swap_faults)
            if classified != stats.faults:
                problems.append(
                    f"{vm.name}: {stats.faults} faults but {classified} "
                    "classified"
                )
        bc = broker.counters
        requests = bc["grants"] + bc["rejects_capacity"] + bc["rejects_price"]
        counts = {
            "sim.sim_ms": env.now / 1000.0,
            "market.grants": bc["grants"],
            "market.revocations": bc["revocations"],
            "market.grant_ratio": _ratio(bc["grants"], requests),
            "market.vm_crashes": fleet.counters["vm_crashes"],
            "market.invariant_violations": len(state.check.violations),
        }
        outputs = {
            "counts": counts,
            "accesses": accesses,
            "broker": bc.as_dict(),
            "fleet": fleet.counters.as_dict(),
            "tenants": fleet.tenant_summary(),
            "spot_price": broker.spot_price(),
        }
        return Batch(accesses=accesses, seconds=seconds, counts=counts,
                     outputs=outputs, problems=problems)


# ---------------------------------------------------------------------------
# a generated fleet scenario
# ---------------------------------------------------------------------------

def scenario_document(seed: int) -> Dict[str, object]:
    """A ``repro-scenario/1`` fleet document drawn from ``seed``.

    Zipfian tenants whose hot head fits their capacity beside sweep
    tenants that defeat the LRU, all on a diurnal load with two spikes,
    with crash chaos and the invariant audit on.  The seed places the
    spikes, sets their heights and seeds the run; the fleet's size and
    shape are fixed, and every tenant shares one load curve, so every
    seed asks for about the same work in the same mix.
    """
    rng = random.Random(derive_seed(seed, "e2ebench-scenario"))
    first = rng.randrange(8, SCENARIO_TICKS // 2 - 4)
    second = rng.randrange(SCENARIO_TICKS // 2, SCENARIO_TICKS - 8)
    load = {
        "kind": "diurnal", "period_ticks": 48, "peak_multiplier": 3.0,
        "spikes": [
            {"at_tick": first, "multiplier": 3.0, "duration_ticks": 3},
            {"at_tick": second, "multiplier": 2.0, "duration_ticks": 3},
        ],
    }

    return {
        "schema": "repro-scenario/1",
        "name": f"e2ebench-fleet-{seed}",
        "description": "zipfian and sweep tenants on a diurnal load with "
                       "spikes and crash chaos",
        "kind": "fleet",
        "seed": seed,
        "duration": {"ticks": SCENARIO_TICKS, "tick_us": 10_000.0},
        "topology": {"block_vms": 8},
        "workload": {"tenants": [
            {"name": "web", "vms": 24, "footprint_pages": 512,
             "capacity_pages": 256, "accesses_per_tick": 24,
             "pattern": {"kind": "zipfian", "theta": 0.99},
             "load": load},
            {"name": "cache", "vms": 8, "footprint_pages": 256,
             "capacity_pages": 192, "accesses_per_tick": 32,
             "pattern": {"kind": "zipfian", "theta": 0.9},
             "load": load},
            {"name": "trainer", "vms": 8, "footprint_pages": 512,
             "capacity_pages": 128, "accesses_per_tick": 32,
             "pattern": {"kind": "sweep", "stride": 1,
                         "shuffle_every_ticks": 16},
             "load": load},
        ]},
        "faults": {"crash_fraction": 0.05},
        "checks": {"invariants": True},
    }


class ScenarioWorkload:
    """A generated fleet scenario through ``run_scenario``."""

    def prepare(self, seed: int):
        return validate_document(scenario_document(seed))

    def execute(self, scenario) -> Batch:
        start = time.perf_counter()
        outcome = run_scenario(scenario, workers=1, partitions=1)
        seconds = time.perf_counter() - start

        report = outcome.report
        kpis = report["kpis"]
        problems = []
        try:
            validate_report(report)
        except ScenarioError as exc:
            problems.append(f"report fails validation: {exc}")
        if kpis["hits"] + kpis["faults"] != kpis["accesses"]:
            problems.append(
                f"{kpis['hits']} hits + {kpis['faults']} faults != "
                f"{kpis['accesses']} accesses"
            )
        if kpis["first_touches"] + kpis["swap_faults"] != kpis["faults"]:
            problems.append("faults are not all classified")
        spec = scenario.fleet
        counts = {
            "sim.sim_ms": spec.tick_count(False) * spec.tick_us / 1000.0,
            "scenario.hit_ratio": _ratio(kpis["hits"], kpis["accesses"]),
            "scenario.swap_faults": kpis["swap_faults"],
            "scenario.deaths": kpis["deaths"],
            "scenario.invariant_audits": kpis["invariant_audits"],
        }
        outputs = {"counts": counts, "report": report}
        return Batch(accesses=kpis["accesses"], seconds=seconds,
                     counts=counts, outputs=outputs, problems=problems)


def evaluate(batches: List[Batch]) -> List[str]:
    """Every output check over one run's batches; one line per failure.

    Besides each batch's own checks: the ledger audit found no
    violation, the scenario audit ran, and every batch of the run (one
    seed) produced the same digest as the first.
    """
    failures = []
    reference = batches[0].digest if batches else None
    for index, batch in enumerate(batches):
        problems = list(batch.problems)
        violations = batch.counts.get("market.invariant_violations", 0)
        if violations:
            problems.append(f"{violations} market invariant violations")
        if batch.counts.get("scenario.invariant_audits", 1) <= 0:
            problems.append("no invariant audits ran")
        if batch.digest != reference:
            problems.append(
                f"digest {batch.digest} differs from {reference}"
            )
        failures.extend(f"batch {index}: {line}" for line in problems)
    return failures


WORKLOADS = {
    "pmbench-fluidmem": PmbenchWorkload("fluidmem-ramcloud"),
    "pmbench-swap": PmbenchWorkload("swap-nvmeof"),
    "market-fleet": MarketWorkload(),
    "scenario-fleet": ScenarioWorkload(),
}

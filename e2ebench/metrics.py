"""The benchmark's metric catalogue: every name, unit and direction.

``BENCHMARK.json`` lists the end-to-end and per-layer metrics the
result line carries; the tests check that it agrees with this module.
Text-only metrics (``failed_pct``, the simulated latencies and the
paper error) are printed in the report but are not part of the JSON
result line, because they do not exist on every workload or read 0.
"""

from __future__ import annotations

import re

#: Metric names the result line may carry.
NAME_RE = re.compile(r"[A-Za-z0-9_.-]+")

#: name -> (unit, better, what it measures).  Host time unless noted.
END_TO_END = {
    "setup_s": ("s", "lower",
                "host: fresh interpreter -> import repro -> build/boot"),
    "accesses_per_s": ("1/s", "higher",
                       "host: simulated accesses per second of the run"),
    "peak_rss_mb": ("MB", "lower", "host: peak RSS of the run process"),
}

#: Printed for every workload, "n/a" where the workload has no output.
TEXT_ONLY = {
    "failed_pct": ("%", "lower", "runs failing an output check"),
    "sim_lat_p50_us": ("us", "lower", "simulated: pmbench access p50"),
    "sim_lat_p999_us": ("us", "lower", "simulated: pmbench access p99.9"),
    "paper_err_pct": ("%", "lower",
                      "simulated: |mean - paper Fig. 3 mean| / paper"),
}

#: The layers host self time is charged to (see layers.py).
LAYERS = (
    "sim", "kernel.uffd", "kernel.swap", "kernel.lru", "core.monitor",
    "core.writeback", "core.lru_buffer", "core.port", "mem", "kv", "net",
    "blockdev", "obs", "workloads", "vm", "market", "scenario", "check",
    "policy", "faults",
)

#: Exact counts read from the program's public counters after a run.
COUNTS = {
    "sim.sim_ms": ("ms", "lower"),
    "core.faults": ("count", "lower"),
    "core.zero_fills": ("count", "lower"),
    "core.remote_reads": ("count", "lower"),
    "core.evictions": ("count", "lower"),
    "core.steals": ("count", "lower"),
    "core.hit_ratio": ("ratio", "higher"),
    "core.wb_batches": ("count", "lower"),
    "core.wb_pages_per_batch": ("pages", "higher"),
    "kernel.uffd.remaps": ("count", "lower"),
    "kernel.uffd.copies": ("count", "lower"),
    "kv.reads": ("count", "lower"),
    "kv.writes": ("count", "lower"),
    "kv.multi_writes": ("count", "lower"),
    "kernel.swap.major_faults": ("count", "lower"),
    "kernel.swap.reclaimed": ("count", "lower"),
    "kernel.swap.direct_reclaims": ("count", "lower"),
    "kernel.swap.swap_ins": ("count", "lower"),
    "kernel.swap.swap_outs": ("count", "lower"),
    "kernel.swap.cache_hit_ratio": ("ratio", "higher"),
    "blockdev.reads": ("count", "lower"),
    "blockdev.writes": ("count", "lower"),
    "market.grants": ("count", "higher"),
    "market.revocations": ("count", "lower"),
    "market.grant_ratio": ("ratio", "higher"),
    "market.vm_crashes": ("count", "lower"),
    "market.invariant_violations": ("count", "lower"),
    "scenario.hit_ratio": ("ratio", "higher"),
    "scenario.swap_faults": ("count", "lower"),
    "scenario.deaths": ("count", "lower"),
    "scenario.invariant_audits": ("count", "higher"),
}


def per_layer() -> dict:
    """name -> (unit, better) for every per-layer metric, in order."""
    metrics = {}
    for layer in LAYERS:
        metrics[f"{layer}.self_pct"] = ("%", "lower")
    for layer in LAYERS:
        metrics[f"{layer}.calls"] = ("count", "lower")
    metrics["trace.overhead_x"] = ("x", "lower")
    metrics["host.ref_loop_s"] = ("s", "lower")
    metrics.update(COUNTS)
    return metrics

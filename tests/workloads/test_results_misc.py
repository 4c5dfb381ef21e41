"""Tests for workload result objects and misc generator pieces."""

import numpy as np
import pytest

from repro.errors import WorkloadError
from repro.sim import LatencyRecorder
from repro.workloads import (
    Graph500,
    Graph500Config,
    KroneckerGraph,
    PmbenchResult,
    YcsbConfig,
)
from repro.workloads.graph500 import Graph500Result
from repro.workloads.ycsb import YcsbResult, fnv_hash64

from .conftest import make_fluidmem_world


# ------------------------------------------------------------ PmbenchResult

def make_pmbench_result():
    reads = LatencyRecorder("r")
    writes = LatencyRecorder("w")
    reads.extend([1.0, 2.0, 30.0])
    writes.extend([4.0])
    return PmbenchResult(reads, writes, warmup_time_us=100.0,
                         measured_time_us=37.0, hits=2, faults=2)


def test_pmbench_result_average_weighted():
    result = make_pmbench_result()
    assert result.average_latency_us == pytest.approx((33.0 + 4.0) / 4)


def test_pmbench_result_average_skips_an_empty_recorder():
    reads = LatencyRecorder("r")
    reads.extend([1.0, 2.0, 30.0])
    result = PmbenchResult(reads, LatencyRecorder("w"), warmup_time_us=0.0,
                           measured_time_us=33.0, hits=3, faults=0)
    assert result.average_latency_us == 11.0
    assert "avg=11.00us" in repr(result)
    empty = PmbenchResult(LatencyRecorder("r"), LatencyRecorder("w"),
                          0.0, 0.0, 0, 0)
    with pytest.raises(ValueError, match="no latency samples"):
        empty.average_latency_us


def test_pmbench_result_cdf_and_hits():
    result = make_pmbench_result()
    assert result.hit_fraction == 0.5
    assert result.cdf().fraction_below(10.0) == 0.75
    assert len(result.all_samples) == 4


# ----------------------------------------------------------- Graph500Result

def test_graph500_result_stats():
    result = Graph500Result(
        teps=[1e6, 2e6],
        edges_traversed=[100, 200],
        bfs_times_us=[100.0, 100.0],
    )
    assert result.harmonic_mean_teps == pytest.approx(1.333e6, rel=0.01)
    assert result.mean_teps_millions == pytest.approx(1.333, rel=0.01)


def test_graph500_result_requires_trials():
    with pytest.raises(WorkloadError):
        Graph500Result([], [], [])


def test_pick_roots_have_edges():
    world = make_fluidmem_world(lru_pages=4096, vm_mib=128)
    bench = Graph500(
        world.env, world.port, world.base_addr,
        Graph500Config(scale=7, edgefactor=2, num_bfs_roots=8, seed=3),
    )
    for root in bench.pick_roots():
        assert bench.graph.degree(root) > 0


def test_graph_layout_is_page_aligned_and_disjoint():
    world = make_fluidmem_world(lru_pages=4096, vm_mib=128)
    bench = Graph500(
        world.env, world.port, world.base_addr,
        Graph500Config(scale=8, edgefactor=4, seed=1),
    )
    bases = [
        bench.xadj_base, bench.adj_base,
        bench.parent_bases[0], bench.visited_bases[0],
        bench.parent_bases[1], bench.visited_bases[1],
        bench.end_addr,
    ]
    assert all(base % 4096 == 0 for base in bases)
    assert bases == sorted(bases)
    assert len(set(bases)) == len(bases)


def test_kronecker_deterministic_by_seed():
    a = KroneckerGraph(scale=8, edgefactor=4, seed=5)
    b = KroneckerGraph(scale=8, edgefactor=4, seed=5)
    assert np.array_equal(a.adjacency, b.adjacency)
    c = KroneckerGraph(scale=8, edgefactor=4, seed=6)
    assert not np.array_equal(a.adjacency, c.adjacency)


# ------------------------------------------------------------------- YCSB

def test_fnv_hash_is_deterministic_and_spreads():
    assert fnv_hash64(1) == fnv_hash64(1)
    values = {fnv_hash64(i) % 1000 for i in range(200)}
    assert len(values) > 150  # good dispersion


def test_ycsb_result_accumulates():
    result = YcsbResult()
    result.read_latency.record(100.0)
    result.timeline.record(0.0, 100.0)
    assert result.average_latency_us == 100.0
    assert "avg=100" in repr(result)


def test_ycsb_config_validation():
    with pytest.raises(WorkloadError):
        YcsbConfig(record_count=0)
    with pytest.raises(WorkloadError):
        YcsbConfig(operation_count=0)

"""Tests of the benchmark's own code (not of the program it measures).

Run from the repository root: ``python3 -m pytest e2ebench/tests``.
"""

import json
import random
from pathlib import Path

import layers
import metrics
from workloads import Batch, evaluate, nearest_rank, scenario_document

from repro.scenario import validate_document

ROOT = Path(__file__).resolve().parents[2]


def _declared():
    with open(ROOT / "BENCHMARK.json") as handle:
        return json.load(handle)


def test_every_metric_name_is_well_formed():
    names = (list(metrics.END_TO_END) + list(metrics.TEXT_ONLY)
             + list(metrics.per_layer()))
    assert len(names) == len(set(names))
    for name in names:
        assert metrics.NAME_RE.fullmatch(name), name
        assert len(name) <= 64, name


def test_benchmark_json_matches_the_catalogue():
    declared = _declared()
    assert declared["paths"] == ["e2ebench"]
    end_to_end = {m["name"]: (m["unit"], m["better"])
                  for m in declared["end_to_end"]}
    assert end_to_end == {name: (unit, better) for name, (unit, better, _)
                          in metrics.END_TO_END.items()}
    per_layer = {m["name"]: (m["unit"], m["better"])
                 for m in declared["per_layer"]}
    assert per_layer == metrics.per_layer()
    bounds = {m["name"]: m["bound"] for m in declared["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values()) <= 0.25


# -- layer attribution --------------------------------------------------------

REPRO = "/co/src/repro"
HARNESS = "/co/e2ebench"


def _classify(filename):
    return layers.layer_of(filename, REPRO, HARNESS)


def test_layer_of_maps_modules_packages_and_stdlib():
    assert _classify(f"{REPRO}/kernel/uffd.py") == "kernel.uffd"
    assert _classify(f"{REPRO}/kernel/kswapd.py") == "kernel.swap"
    assert _classify(f"{REPRO}/core/page_tracker.py") == "core.monitor"
    assert _classify(f"{REPRO}/sim/core.py") == "sim"
    assert _classify(f"{REPRO}/bench/platform.py") == layers.OTHER
    assert _classify(f"{HARNESS}/workloads.py") == layers.HARNESS
    assert _classify("/usr/lib/python3/random.py") is None
    assert _classify("~") is None


def test_synthetic_chain_charges_stdlib_self_time_to_the_caller():
    # sim.step -> monitor.fault -> random.randrange -> getrandbits,
    # and kv.put -> getrandbits directly.
    step = (f"{REPRO}/sim/core.py", 10, "step")
    fault = (f"{REPRO}/core/monitor.py", 20, "fault")
    put = (f"{REPRO}/kv/ramcloud.py", 30, "put")
    randrange = ("/usr/lib/python3/random.py", 40, "randrange")
    bits = ("~", 0, "<method 'getrandbits' of '_random.Random' objects>")
    # stats: func -> (cc, nc, tt, ct, {caller: (nc, cc, tt, ct)})
    stats = {
        step: (1, 1, 1.0, 10.0, {}),
        fault: (4, 4, 2.0, 6.0, {step: (4, 4, 2.0, 6.0)}),
        put: (2, 2, 0.5, 2.0, {step: (2, 2, 0.5, 2.0)}),
        randrange: (4, 4, 3.0, 4.0, {fault: (4, 4, 3.0, 4.0)}),
        bits: (6, 6, 2.5, 2.5, {randrange: (4, 4, 1.0, 1.0),
                                put: (2, 2, 1.5, 1.5)}),
    }
    self_s, calls, total = layers.attribute(stats, _classify)
    assert total == 9.0
    assert self_s["core.monitor"] == 2.0 + 3.0 + 1.0
    assert self_s["kv"] == 0.5 + 1.5
    assert self_s["sim"] == 1.0
    assert calls == {"core.monitor": 4, "kv": 2}


def test_profiled_run_charges_builtins_to_the_calling_layer(tmp_path):
    repro = tmp_path / "src" / "repro"
    harness = tmp_path / "e2ebench"
    code = compile(
        "import random\n"
        "def work():\n"
        "    rng = random.Random(1)\n"
        "    return sorted([rng.random() for _ in range(50000)])\n",
        str(repro / "kernel" / "lru.py"), "exec",
    )
    caller = compile(
        "def drive():\n    return work()\n",
        str(harness / "caller.py"), "exec",
    )
    namespace = {}
    exec(code, namespace)
    exec(caller, namespace)
    _, stats = layers.profile_call(namespace["drive"])
    self_pct, calls = layers.layer_report(stats, str(repro), str(harness))
    assert self_pct["kernel.lru"] > 90.0
    assert calls["kernel.lru"] == 1


# -- output checks ----------------------------------------------------------------

def _batch(**counts):
    return Batch(accesses=10, seconds=1.0, counts=dict(counts),
                 outputs={"counts": dict(counts)})


def test_identical_batches_pass():
    assert evaluate([_batch(x=1), _batch(x=1)]) == []


def test_a_tampered_digest_is_reported_as_failed():
    tampered = _batch(x=1)
    tampered.outputs["counts"]["x"] = 2
    failures = evaluate([_batch(x=1), tampered])
    assert len(failures) == 1 and "digest" in failures[0]


def test_a_nonzero_violation_count_is_reported_as_failed():
    bad = _batch(**{"market.invariant_violations": 1})
    assert any("violations" in line for line in evaluate([bad]))


def test_a_scenario_run_without_audits_is_reported_as_failed():
    bad = _batch(**{"scenario.invariant_audits": 0})
    assert any("audits" in line for line in evaluate([bad]))


def test_a_batch_problem_is_reported_as_failed():
    bad = _batch(x=1)
    bad.problems.append("completed 9 of 10 accesses")
    assert evaluate([bad]) == ["batch 0: completed 9 of 10 accesses"]


# -- inputs and percentiles --------------------------------------------------------

def test_nearest_rank_percentiles():
    samples = [float(i) for i in range(1, 1001)]
    assert nearest_rank(samples, 0.5) == 500.0
    assert nearest_rank(samples, 0.999) == 999.0
    assert nearest_rank([7.0], 0.999) == 7.0


def test_scenario_documents_are_valid_and_seeded():
    for seed in random.Random(0).sample(range(10_000), 5):
        doc = scenario_document(seed)
        assert doc == scenario_document(seed)
        scenario = validate_document(doc)
        assert scenario.seed == seed and scenario.invariants
    assert scenario_document(1) != scenario_document(2)

"""The CI perf-regression gate: repro.obs.compare."""

import json

from repro.obs.compare import compare_metrics, main, missing_from_current


def _doc(p50=10.0, p99=20.0, count=100):
    return {
        "schema": "repro-bench-metrics/1",
        "experiments": {
            "fig3": {
                "counters": {},
                "gauges": {},
                "histograms": {
                    "path_latency_us{path=sync_fetch,vm=vm0}": {
                        "count": count, "mean": 12.0, "p50": p50,
                        "p95": 18.0, "p99": p99, "min": 1.0, "max": 30.0,
                    },
                },
            },
        },
    }


def test_identical_documents_pass():
    assert compare_metrics(_doc(), _doc()) == []


def test_small_drift_within_threshold_passes():
    assert compare_metrics(_doc(), _doc(p50=11.9, p99=23.9)) == []


def test_regression_over_threshold_is_reported():
    regressions = compare_metrics(_doc(), _doc(p99=30.0))
    assert len(regressions) == 1
    reg = regressions[0]
    assert reg.stat == "p99"
    assert reg.baseline == 20.0 and reg.current == 30.0
    assert "p99" in str(reg)


def test_improvement_is_not_a_regression():
    assert compare_metrics(_doc(), _doc(p50=5.0, p99=8.0)) == []


def test_low_count_histograms_are_ignored():
    # Too few samples for a stable percentile: noise, not a regression.
    assert compare_metrics(_doc(count=10), _doc(p99=80.0, count=10)) == []


def test_sub_microsecond_latencies_are_ignored():
    base = _doc(p50=0.2, p99=0.5)
    curr = _doc(p50=0.9, p99=0.99)
    assert compare_metrics(base, curr) == []


HIST = "path_latency_us{path=sync_fetch,vm=vm0}"


def test_missing_histogram_in_current_fails_the_gate(tmp_path, capsys):
    current = _doc()
    current["experiments"]["fig3"]["histograms"] = {}
    assert missing_from_current(_doc(), current) == [f"fig3: {HIST}"]
    baseline_path = tmp_path / "baseline.json"
    current_path = tmp_path / "current.json"
    baseline_path.write_text(json.dumps(_doc()))
    current_path.write_text(json.dumps(current))
    assert main([str(baseline_path), str(current_path)]) == 1
    out = capsys.readouterr().out
    assert "missing from the current run" in out and HIST in out


def test_missing_experiment_in_current_fails_the_gate(tmp_path, capsys):
    baseline = _doc()
    baseline["experiments"]["market"] = baseline["experiments"]["fig3"]
    assert missing_from_current(baseline, _doc()) == ["market"]
    baseline_path = tmp_path / "baseline.json"
    current_path = tmp_path / "current.json"
    baseline_path.write_text(json.dumps(baseline))
    current_path.write_text(json.dumps(_doc()))
    assert main([str(baseline_path), str(current_path)]) == 1
    assert "  market\n" in capsys.readouterr().out


def test_missing_low_count_histogram_is_not_gated():
    current = _doc()
    current["experiments"]["fig3"]["histograms"] = {}
    assert missing_from_current(_doc(count=10), current) == []


def test_histogram_new_in_current_is_fine():
    current = _doc()
    histograms = current["experiments"]["fig3"]["histograms"]
    histograms["new_latency_us"] = dict(histograms[HIST])
    assert missing_from_current(_doc(), current) == []
    assert compare_metrics(_doc(), current) == []


def test_bare_snapshot_documents_are_accepted():
    snapshot = _doc()["experiments"]["fig3"]
    regressed = json.loads(json.dumps(snapshot))
    hist = regressed["histograms"][
        "path_latency_us{path=sync_fetch,vm=vm0}"]
    hist["p50"] = 99.0
    assert compare_metrics(snapshot, snapshot) == []
    assert len(compare_metrics(snapshot, regressed)) == 1


def test_cli_exit_codes(tmp_path, capsys):
    baseline = tmp_path / "baseline.json"
    current = tmp_path / "current.json"
    baseline.write_text(json.dumps(_doc()))
    current.write_text(json.dumps(_doc()))
    assert main([str(baseline), str(current)]) == 0
    current.write_text(json.dumps(_doc(p99=50.0)))
    assert main([str(baseline), str(current)]) == 1
    out = capsys.readouterr().out
    assert "regressed" in out
    # The failure message documents how to refresh the baseline, with
    # every experiment the CI job gates.
    assert "repro.bench" in out and "--metrics" in out
    assert "fig3 table1 cluster market --quick" in out


def test_cli_threshold_flag(tmp_path):
    baseline = tmp_path / "baseline.json"
    current = tmp_path / "current.json"
    baseline.write_text(json.dumps(_doc()))
    current.write_text(json.dumps(_doc(p99=23.0)))  # +15%
    assert main([str(baseline), str(current)]) == 0
    assert main([str(baseline), str(current), "--threshold", "0.1"]) == 1

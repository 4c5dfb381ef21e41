"""Scenario compilation and the fleet engine's mechanics."""

import pytest

from repro.errors import InvariantViolation, ScenarioError
from repro.scenario import SCENARIO_SCHEMA, run_scenario, validate_document
from repro.scenario.schema import (
    FleetChaosSpec,
    FleetSpec,
    FleetTenantSpec,
    LoadSpec,
    PatternSpec,
    SpikeSpec,
)
from repro.scenario.workloads import (
    LATENCY_BUCKETS_US,
    FleetVM,
    fleet_payloads,
    fleet_vm_names,
    histogram_percentile,
    merge_block_results,
    run_fleet_block,
)


def _fleet_doc(**overrides):
    doc = {
        "schema": SCENARIO_SCHEMA,
        "name": "mini-fleet",
        "kind": "fleet",
        "seed": 7,
        "duration": {"ticks": 8, "quick_ticks": 4},
        "workload": {
            "tenants": [{
                "name": "a", "vms": 3,
                "footprint_pages": 64, "capacity_pages": 32,
                "accesses_per_tick": 8,
            }],
        },
    }
    doc.update(overrides)
    return doc


class TestFleetEngine:
    def test_vm_names_are_positional_and_stable(self):
        scenario = validate_document(_fleet_doc())
        names = [name for _, name in
                 fleet_vm_names(scenario.fleet, quick=False)]
        assert names == ["a-000", "a-001", "a-002"]

    def test_quick_vm_count_defaults_to_a_quarter(self):
        tenant = FleetTenantSpec(
            name="t", vms=16, footprint_pages=64, capacity_pages=32,
        )
        assert tenant.vm_count(quick=False) == 16
        assert tenant.vm_count(quick=True) == 4
        explicit = FleetTenantSpec(
            name="t", vms=16, quick_vms=2,
            footprint_pages=64, capacity_pages=32,
        )
        assert explicit.vm_count(quick=True) == 2

    def test_block_boundaries_ignore_worker_count(self):
        spec = FleetSpec(
            tenants=(FleetTenantSpec(
                name="t", vms=10, footprint_pages=64, capacity_pages=32,
            ),),
            block_vms=4,
        )
        payloads = fleet_payloads(spec, seed=1, quick=False,
                                  invariants=True)
        assert [len(p["vms"]) for p in payloads] == [4, 4, 2]

    def test_block_results_merge_identically_at_any_split(self):
        scenario = validate_document(_fleet_doc())
        spec = scenario.fleet
        whole = [dict(p, vms=fleet_vm_names(spec, False))
                 for p in fleet_payloads(spec, 7, False, True)[:1]]
        split = fleet_payloads(
            FleetSpec(
                tenants=spec.tenants, ticks=spec.ticks,
                quick_ticks=spec.quick_ticks, tick_us=spec.tick_us,
                block_vms=1, chaos=spec.chaos,
            ),
            7, False, True,
        )
        merged_whole = merge_block_results(
            [run_fleet_block(p) for p in whole], spec, False
        )
        merged_split = merge_block_results(
            [run_fleet_block(p) for p in split], spec, False
        )
        assert merged_whole == merged_split

    def test_accounting_invariants_hold(self):
        scenario = validate_document(_fleet_doc())
        payload = fleet_payloads(scenario.fleet, 7, False, True)[0]
        result = run_fleet_block(payload)
        stats = result["tenants"]["a"]
        assert stats["hits"] + stats["faults"] == stats["accesses"]
        assert stats["first_touches"] + stats["swap_faults"] \
            == stats["faults"]
        assert result["audits"] == 3 * stats["vms"]
        assert sum(result["per_tick_faults"]) == stats["faults"]
        assert sum(result["histogram"]) == stats["faults"]

    def test_audit_catches_cooked_books(self):
        tenant = FleetTenantSpec(
            name="t", vms=1, footprint_pages=64, capacity_pages=32,
        )
        vm = FleetVM("t-000", tenant, seed=1, ticks=4,
                     chaos=FleetChaosSpec())
        vm.run_tick(0, [0] * len(LATENCY_BUCKETS_US), [])
        vm.hits += 1  # corrupt the ledger
        with pytest.raises(InvariantViolation, match="access-accounting"):
            vm.audit()

    def test_diurnal_load_and_spikes_shape_the_rate(self):
        load = LoadSpec(
            kind="diurnal", period_ticks=8, peak_multiplier=3.0,
            spikes=(SpikeSpec(at_tick=2, multiplier=2.0,
                              duration_ticks=1),),
        )
        tenant = FleetTenantSpec(
            name="t", vms=1, footprint_pages=64, capacity_pages=64,
            accesses_per_tick=10, load=load,
        )
        vm = FleetVM("t-000", tenant, seed=1, ticks=8,
                     chaos=FleetChaosSpec())
        trough = vm._load_multiplier(0)
        peak = vm._load_multiplier(4)
        spiked = vm._load_multiplier(2)
        assert trough == pytest.approx(1.0)
        assert peak == pytest.approx(3.0)
        assert spiked > vm._load_multiplier(1)  # the spike multiplies

    def test_sweep_pattern_walks_the_footprint(self):
        tenant = FleetTenantSpec(
            name="t", vms=1, footprint_pages=16, capacity_pages=16,
            accesses_per_tick=4,
            pattern=PatternSpec(kind="sweep", stride=1),
        )
        vm = FleetVM("t-000", tenant, seed=1, ticks=4,
                     chaos=FleetChaosSpec())
        # Split over two ticks: the second continues where the first
        # stopped.
        draws = vm._draw_pages(13) + vm._draw_pages(7)
        assert draws[:16] == list(range(16))
        assert draws[16:] == [0, 1, 2, 3]  # wrapped

    def test_crash_window_loses_residency_and_reboots_cold(self):
        tenant = FleetTenantSpec(
            name="t", vms=1, footprint_pages=32, capacity_pages=32,
            accesses_per_tick=16,
        )
        chaos = FleetChaosSpec(crash_fraction=1.0)
        vm = FleetVM("t-000", tenant, seed=3, ticks=16, chaos=chaos)
        assert vm.crash_window is not None
        histogram = [0] * len(LATENCY_BUCKETS_US)
        events = []
        for tick in range(16):
            vm.run_tick(tick, histogram, events)
        kinds = [kind for _, kind, _ in events]
        assert "crash" in kinds
        assert vm.deaths == 1
        if vm.crash_window[1] < 16:
            assert "reboot" in kinds

    def test_chaos_windows_depend_on_name_not_position(self):
        tenant = FleetTenantSpec(
            name="t", vms=2, footprint_pages=32, capacity_pages=32,
        )
        chaos = FleetChaosSpec(crash_fraction=0.5, surge_fraction=0.5)
        first = FleetVM("t-000", tenant, seed=1, ticks=32, chaos=chaos)
        again = FleetVM("t-000", tenant, seed=1, ticks=32, chaos=chaos)
        other = FleetVM("t-001", tenant, seed=1, ticks=32, chaos=chaos)
        assert first.crash_window == again.crash_window
        assert first.surge_window == again.surge_window
        assert (
            (first.crash_window, first.surge_window)
            != (other.crash_window, other.surge_window)
        )

    def test_histogram_percentile_reads_bucket_edges(self):
        counts = [0] * len(LATENCY_BUCKETS_US)
        counts[2] = 90   # <= 4 us
        counts[7] = 10   # <= 128 us
        assert histogram_percentile(counts, 0.50) == 4.0
        assert histogram_percentile(counts, 0.99) == 128.0
        assert histogram_percentile([0] * len(counts), 0.5) == 0.0


class TestRunScenario:
    def test_fleet_outcome_carries_report_and_trace(self):
        scenario = validate_document(_fleet_doc())
        outcome = run_scenario(scenario, quick=True)
        assert outcome.report["schema"] == "repro-scenario-metrics/1"
        assert outcome.kpis["vms"] == 1  # quick: 3 VMs -> 1
        assert outcome.kpis["ticks"] == 4
        assert outcome.tracer is not None
        names = [event.name for event in outcome.tracer.events]
        assert "tick" in names

    def test_trace_can_be_disabled_by_the_scenario(self):
        scenario = validate_document(
            _fleet_doc(obs={"trace": False})
        )
        outcome = run_scenario(scenario, quick=True)
        assert outcome.tracer is None

    def test_single_vm_report_names_the_platform(self):
        scenario = validate_document({
            "schema": SCENARIO_SCHEMA, "name": "sv",
            "kind": "single-vm",
            "workload": {"accesses": 400, "quick_accesses": 200},
        })
        outcome = run_scenario(scenario, quick=True)
        assert outcome.kpis["accesses"] == 200
        assert outcome.kpis["faults"] + outcome.kpis["hits"] == 200
        assert "fluidmem-ramcloud" in outcome.report["groups"]["platform"]

    @pytest.mark.parametrize("read_ratio", [0.0, 1.0])
    def test_single_direction_single_vm_run_reports_an_average(
        self, read_ratio
    ):
        """A schema-valid all-writes or all-reads run leaves one pmbench
        recorder empty; the average must weight only the other."""
        scenario = validate_document({
            "schema": SCENARIO_SCHEMA, "name": "one-way",
            "kind": "single-vm",
            "workload": {"accesses": 400, "quick_accesses": 200,
                         "read_ratio": read_ratio},
        })
        outcome = run_scenario(scenario, quick=True)
        assert outcome.kpis["accesses"] == 200
        assert outcome.kpis["avg_latency_us"] > 0.0

    def test_cluster_report_has_scaleout_groups(self):
        scenario = validate_document({
            "schema": SCENARIO_SCHEMA, "name": "cl", "kind": "cluster",
            "topology": {"max_nodes": 3},
            "workload": {"pages": 120, "quick_pages": 60},
        })
        outcome = run_scenario(scenario, quick=True)
        assert outcome.kpis["keys_lost"] == 0
        assert outcome.kpis["read_back_ok"] is True
        assert set(outcome.report["groups"]["scaleout"]) == {"1", "2", "3"}

    def test_invalid_scenario_never_reaches_the_runner(self):
        with pytest.raises(ScenarioError):
            validate_document(_fleet_doc(workload={"tenants": []}))

    def test_partitions_other_than_one_raise(self):
        scenario = validate_document(_fleet_doc())
        assert run_scenario(scenario, quick=True, partitions=1).kpis
        with pytest.raises(ScenarioError, match="partitions=2"):
            run_scenario(scenario, quick=True, partitions=2)

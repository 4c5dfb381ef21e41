"""Determinism pins for the engine fast paths.

The hot-path overhaul (``try_advance`` clock bumps, inline resource
grants, process-free remote reads) is only allowed to change
*wall-clock* speed.  These tests pin the two contracts that make that
claim checkable, against the one engine switch (``REPRO_SIM_FASTPATH``
/ :func:`repro.sim.set_fastpath`, DESIGN.md §12 and §17):

* (a) the seed-42 ``--metrics`` document for fig3/table1/cluster and
  the policy-lab tournament is **byte-identical** with the fast paths
  on and forced off — simulated results do not depend on them;
* (b) ``repro.check`` campaign results are unchanged by the switch
  under *every* ``SCHEDULES`` policy, because a scheduler auto-disables
  every fast path (the explorer must see every scheduling decision
  either way).
"""

import contextlib
import io

from repro.bench.cli import main as bench_main
from repro.check.campaign import run_campaign
from repro.check.explorer import SCHEDULES
from repro.sim import set_fastpath


def _metrics_bytes(tmp_path, tag):
    path = tmp_path / f"metrics-{tag}.json"
    with contextlib.redirect_stdout(io.StringIO()):
        code = bench_main([
            "fig3", "table1", "cluster", "tournament",
            "--quick", "--seed", "42", "--metrics", str(path),
        ])
    assert code == 0
    return path.read_bytes()


def test_metrics_byte_identical_with_fastpath_forced_off(tmp_path):
    with_fastpath = _metrics_bytes(tmp_path, "on")
    previous = set_fastpath(False)
    try:
        without_fastpath = _metrics_bytes(tmp_path, "off")
    finally:
        set_fastpath(previous)
    assert with_fastpath == without_fastpath


def _campaign_summaries():
    report = run_campaign(
        scenarios=("writeback", "kv"),
        seeds=(0,),
        schedules=tuple(sorted(SCHEDULES)),
    )
    assert report.ok
    return report.summaries


def test_campaign_unchanged_by_fastpath_switch_under_scheduler():
    """Every SchedulePolicy auto-disables the fast paths: a campaign
    over the full SCHEDULES grid must not notice the switch."""
    with_fastpath = _campaign_summaries()
    previous = set_fastpath(False)
    try:
        without_fastpath = _campaign_summaries()
    finally:
        set_fastpath(previous)
    assert with_fastpath == without_fastpath

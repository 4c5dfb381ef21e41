"""Perf-regression gate over two bench metrics snapshots.

Usage::

    python -m repro.obs.compare baselines/quick-seed42.json out.json \
        [--threshold 0.20] [--min-count 50] [--min-us 1.0]

Compares every tracked latency statistic (p50 and p99 of each
histogram) of ``current`` against ``baseline`` and exits non-zero if
any regressed by more than ``--threshold`` (relative).  Histograms with
fewer than ``--min-count`` samples on either side are skipped (too
noisy to gate on), as are absolute differences below ``--min-us``.  A
baseline experiment, or a baseline histogram with at least
``--min-count`` samples, that the current document lacks fails the gate
too: a run that drops what the gate tracks must not pass it.
Histograms new in the current document are fine.

To refresh the checked-in baseline after an intentional perf change
(the same experiments CI gates)::

    PYTHONPATH=src python -m repro.bench fig3 table1 cluster market \
        --quick --metrics benchmarks/baselines/quick-seed42.json
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Dict, List, Optional, Sequence

__all__ = ["Regression", "compare_metrics", "missing_from_current", "main"]

#: The percentiles the gate tracks per histogram.
TRACKED_STATS = ("p50", "p99")


class Regression:
    """One tracked statistic that got slower than the gate allows."""

    __slots__ = ("experiment", "key", "stat", "baseline", "current")

    def __init__(
        self,
        experiment: str,
        key: str,
        stat: str,
        baseline: float,
        current: float,
    ) -> None:
        self.experiment = experiment
        self.key = key
        self.stat = stat
        self.baseline = baseline
        self.current = current

    @property
    def ratio(self) -> float:
        return self.current / self.baseline if self.baseline else float("inf")

    def __str__(self) -> str:
        return (
            f"{self.experiment}: {self.key} {self.stat} "
            f"{self.baseline:.2f}us -> {self.current:.2f}us "
            f"(x{self.ratio:.2f})"
        )


def _experiments(doc: Dict[str, object]) -> Dict[str, Dict]:
    """Accept both the multi-experiment file and a bare snapshot."""
    experiments = doc.get("experiments")
    if isinstance(experiments, dict):
        return experiments
    if "histograms" in doc:
        return {"(root)": doc}  # a bare registry snapshot
    return {}


def compare_metrics(
    baseline: Dict[str, object],
    current: Dict[str, object],
    threshold: float = 0.20,
    min_count: int = 50,
    min_us: float = 1.0,
) -> List[Regression]:
    """All tracked stats that regressed beyond ``threshold``."""
    regressions: List[Regression] = []
    base_experiments = _experiments(baseline)
    curr_experiments = _experiments(current)
    for experiment in sorted(base_experiments):
        if experiment not in curr_experiments:
            continue
        base_hists = base_experiments[experiment].get("histograms", {})
        curr_hists = curr_experiments[experiment].get("histograms", {})
        for key in sorted(base_hists):
            if key not in curr_hists:
                continue
            base_row, curr_row = base_hists[key], curr_hists[key]
            if (
                base_row.get("count", 0) < min_count
                or curr_row.get("count", 0) < min_count
            ):
                continue
            for stat in TRACKED_STATS:
                base_value = base_row.get(stat)
                curr_value = curr_row.get(stat)
                if base_value is None or curr_value is None:
                    continue
                if curr_value - base_value < min_us:
                    continue
                if curr_value > base_value * (1.0 + threshold):
                    regressions.append(
                        Regression(experiment, key, stat,
                                   base_value, curr_value)
                    )
    return regressions


def missing_from_current(
    baseline: Dict[str, object],
    current: Dict[str, object],
    min_count: int = 50,
) -> List[str]:
    """Gated baseline entries the current document lacks.

    One ``"<experiment>"`` line per missing experiment, and one
    ``"<experiment>: <histogram>"`` line per missing histogram that has
    at least ``min_count`` baseline samples (the ones
    :func:`compare_metrics` would have gated).
    """
    missing: List[str] = []
    base_experiments = _experiments(baseline)
    curr_experiments = _experiments(current)
    for experiment in sorted(base_experiments):
        if experiment not in curr_experiments:
            missing.append(experiment)
            continue
        curr_hists = curr_experiments[experiment].get("histograms", {})
        for key, row in sorted(
            base_experiments[experiment].get("histograms", {}).items()
        ):
            if key not in curr_hists and row.get("count", 0) >= min_count:
                missing.append(f"{experiment}: {key}")
    return missing


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro.obs.compare",
        description="Fail if tracked bench latencies regressed",
    )
    parser.add_argument("baseline", help="checked-in baseline JSON")
    parser.add_argument("current", help="freshly produced metrics JSON")
    parser.add_argument("--threshold", type=float, default=0.20,
                        help="relative slowdown allowed (default 0.20)")
    parser.add_argument("--min-count", type=int, default=50,
                        help="skip histograms with fewer samples")
    parser.add_argument("--min-us", type=float, default=1.0,
                        help="ignore absolute diffs below this many us")
    args = parser.parse_args(argv)

    with open(args.baseline) as handle:
        baseline = json.load(handle)
    with open(args.current) as handle:
        current = json.load(handle)

    regressions = compare_metrics(
        baseline, current,
        threshold=args.threshold,
        min_count=args.min_count,
        min_us=args.min_us,
    )
    missing = missing_from_current(
        baseline, current, min_count=args.min_count
    )
    if regressions:
        print(
            f"{len(regressions)} tracked latency stat(s) regressed more "
            f"than {100 * args.threshold:.0f}%:"
        )
        for regression in regressions:
            print(f"  {regression}")
    if missing:
        print(
            f"{len(missing)} gated experiment(s)/histogram(s) missing "
            "from the current run:"
        )
        for entry in missing:
            print(f"  {entry}")
    if regressions or missing:
        print(
            "\nIf this change is intentional, refresh the baseline:\n"
            "  PYTHONPATH=src python -m repro.bench fig3 table1 cluster "
            f"market --quick --metrics {args.baseline}"
        )
        return 1
    print("bench-baseline gate: no tracked latency regressions")
    return 0


if __name__ == "__main__":
    sys.exit(main())

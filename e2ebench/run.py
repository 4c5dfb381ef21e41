"""Run one benchmark workload and print its metrics.

Usage (from the repository root)::

    python3 e2ebench/run.py --workload pmbench-fluidmem --seed 1 \\
        --seconds 20 --trace 0

The run builds nothing: it imports ``repro`` from ``src/`` beside this
directory and exits with status 2 when that is missing.  It then

1. times set-up in fresh interpreters (``setup_s``, the median of
   several probes after one untimed probe);
2. runs the workload's fixed batch again and again, each on freshly
   prepared inputs from the same seed, until ``--seconds`` have passed
   (at least three batches), and reports medians over the batches;
3. with ``--trace 1``, runs one more batch under cProfile and charges
   its host time to layers (see ``layers.py``);
4. checks every batch's outputs, prints a readable report and, as the
   last line, one JSON object: ``correct``, ``attempted`` and ``failed``
   batches, and the metrics -- the end-to-end ones with ``--trace 0``,
   the per-layer ones with ``--trace 1``.

Host times are calibrated (see ``reference.py``).  A fixed pure-Python
reference loop runs just before and just after every timed batch, and
in every set-up probe right after its set-up.  The median batch rate
is scaled by the loop's median time (``host.ref_loop_s``) over
``REF_NOMINAL_S``; each probe's time by ``REF_NOMINAL_S`` over the
loop's time in that probe.  A host, or a phase of a shared host, that
runs Python slower by some factor then moves the metrics much less.
The report also prints the uncalibrated figures.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

from reference import REF_NOMINAL_S, reference_loop

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

#: Timed fresh-interpreter set-ups per run (after one untimed probe).
SETUP_PROBES = 7
#: Each probe must finish within this many seconds.
PROBE_TIMEOUT_S = 60
#: Fewest batches a run measures, however short ``--seconds`` is.
MIN_BATCHES = 3
def measure_setup(workload: str, seed: int) -> list:
    """``(seconds, reference seconds)`` per probe: the time from
    starting a fresh interpreter to a finished set-up, and the time of
    the reference loop the probe ran right after it."""
    command = [sys.executable, str(HERE / "setup_probe.py"), str(SRC),
               workload, str(seed)]

    def probe():
        start = time.monotonic()
        done = subprocess.run(command, capture_output=True, text=True,
                              timeout=PROBE_TIMEOUT_S, check=True)
        finished, ref = done.stdout.split()[-2:]
        return float(finished) - start, float(ref)

    probe()  # may compile bytecode for the ones timed after it
    return [probe() for _ in range(SETUP_PROBES)]


def run_batches(workload, seed: int, seconds: float):
    """Fresh batches until ``seconds`` pass.

    Returns ``([(batch, reference seconds)], [error tracebacks])``.
    """
    timed, errors = [], []
    started = time.perf_counter()
    while (len(timed) + len(errors) < MIN_BATCHES
           or time.perf_counter() - started < seconds):
        gc.collect()
        try:
            state = workload.prepare(seed)
            before = reference_loop()
            batch = workload.execute(state)
            del state  # the loop after the batch runs without it
            timed.append((batch, (before + reference_loop()) / 2))
        except Exception:  # a failed batch is counted, not fatal
            errors.append(traceback.format_exc())
    return timed, errors


def _fmt(value) -> str:
    if value is None:
        return "n/a"
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"e2ebench: no repro sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import layers
    import metrics
    from workloads import WORKLOADS, evaluate

    if args.workload not in WORKLOADS:
        print(f"e2ebench: unknown workload {args.workload!r}; choose from "
              f"{sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]

    setup = measure_setup(args.workload, args.seed)
    timed, errors = run_batches(workload, args.seed, args.seconds)
    batches = [batch for batch, _ref in timed]
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    traced = None
    if args.trace:
        state = workload.prepare(args.seed)
        gc.collect()
        try:
            traced, stats = layers.profile_call(
                lambda: workload.execute(state)
            )
        except Exception:
            errors.append(traceback.format_exc())
    for error in errors:
        print(error, file=sys.stderr)

    checked = batches + ([traced] if traced is not None else [])
    failures = evaluate(checked)
    failed = len(errors) + len({line.split(":")[0] for line in failures})
    attempted = len(checked) + len(errors)
    if not batches:
        print("e2ebench: every batch failed", file=sys.stderr)
        return 1

    first = batches[0]
    batch_s = statistics.median(b.seconds for b in batches)
    ref_loop_s = statistics.median(ref for _batch, ref in timed)
    raw_rate = statistics.median(b.accesses / b.seconds for b in batches)
    end_to_end = {
        "setup_s": statistics.median(
            seconds * REF_NOMINAL_S / ref for seconds, ref in setup
        ),
        "accesses_per_s": raw_rate * ref_loop_s / REF_NOMINAL_S,
        "peak_rss_mb": peak_rss_mb,
    }
    text_only = {
        "failed_pct": 100.0 * failed / attempted,
        "sim_lat_p50_us": first.sim.get("sim_lat_p50_us"),
        "sim_lat_p999_us": first.sim.get("sim_lat_p999_us"),
        "paper_err_pct": first.sim.get("paper_err_pct"),
    }

    print(f"workload {args.workload}  seed {args.seed}  "
          f"digest {first.digest}")
    print(f"  {len(batches)} batches of {first.accesses} accesses, "
          f"median {batch_s:.4f} s each; {failed} of {attempted} failed")
    print(f"  uncalibrated: setup probes (s) "
          + " ".join(f"{t:.4f}" for t, _ref in setup)
          + f"; {raw_rate:.6g} accesses/s")
    print(f"  host.ref_loop_s {ref_loop_s:.6f} s (nominal {REF_NOMINAL_S} s)")
    print("end-to-end:")
    for name, (unit, better, what) in metrics.END_TO_END.items():
        print(f"  {name:<18} {_fmt(end_to_end[name]):>12} {unit:<4} "
              f"{better:<6} {what}")
    for name, (unit, better, what) in metrics.TEXT_ONLY.items():
        print(f"  {name:<18} {_fmt(text_only[name]):>12} {unit:<4} "
              f"{better:<6} {what}")
    if first.sim:
        print(f"  (simulated latencies over {first.sim['sim_lat_samples']} "
              f"measured accesses, mean {first.sim['sim_lat_mean_us']:.4f} "
              "us)")
    print("per-layer counts (n/a: the workload does not run the layer):")
    for name, (unit, _better) in metrics.COUNTS.items():
        print(f"  {name:<30} {_fmt(first.counts.get(name)):>14} {unit}")

    per_layer = {name: first.counts.get(name, 0)
                 for name in metrics.COUNTS}
    per_layer["host.ref_loop_s"] = ref_loop_s
    if traced is not None:
        self_pct, calls = layers.layer_report(
            stats, str(SRC / "repro"), str(HERE)
        )
        overhead = traced.seconds / batch_s
        print(f"per-layer host time (cProfile, {overhead:.2f}x slower "
              "than untraced; compare shares):")
        shown = list(metrics.LAYERS) + [layers.OTHER, layers.HARNESS]
        for layer in shown:
            print(f"  {layer:<16} self {self_pct.get(layer, 0.0):6.2f}%  "
                  f"calls in {calls.get(layer, 0)}")
        print(f"  unattributed     self "
              f"{100.0 - sum(self_pct.values()):6.2f}%")
        for layer in metrics.LAYERS:
            per_layer[f"{layer}.self_pct"] = self_pct.get(layer, 0.0)
            per_layer[f"{layer}.calls"] = calls.get(layer, 0)
        per_layer["trace.overhead_x"] = overhead
    for line in failures:
        print(f"FAILED {line}")

    if args.trace:
        if traced is None:
            return 1
        chosen = {name: (per_layer[name], unit)
                  for name, (unit, _b) in metrics.per_layer().items()}
    else:
        chosen = {name: (end_to_end[name], unit)
                  for name, (unit, _b, _w) in metrics.END_TO_END.items()}
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in chosen.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

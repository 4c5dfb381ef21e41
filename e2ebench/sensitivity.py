"""Sensitivity self-check: does the benchmark see a known slow-down?

``REPRO_SIM_FASTPATH=0`` turns off the simulation engine's fast paths
(timeout pooling, ``try_advance``, burst batching) without changing any
simulated result.  Most of ``pmbench-fluidmem``'s host time runs through
those paths, so its ``accesses_per_s`` should drop by more than the
metric's bound; the two fleets barely use the engine, so theirs should
stay within it.  The digests must not change at all.

Usage (from the repository root)::

    python3 e2ebench/sensitivity.py --seeds 1,2,3 --seconds 10

Runs ``run.py`` on every workload with the switch on and off,
alternating which goes first, and prints the median ``accesses_per_s``
of each side with their ratio.  Exits 1 when an expectation fails.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: Workload -> should the engine switch move it beyond the bound?
EXPECT_MOVE = {
    "pmbench-fluidmem": True,
    "pmbench-swap": None,  # uses the engine too; recorded, not judged
    "market-fleet": False,
    "scenario-fleet": False,
}


def run_once(workload: str, seed: int, seconds: float, fastpath: bool):
    env = dict(os.environ, REPRO_SIM_FASTPATH="1" if fastpath else "0")
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        capture_output=True, text=True, env=env, cwd=ROOT, timeout=600,
        check=True,
    )
    lines = done.stdout.strip().splitlines()
    digest = lines[0].split("digest")[-1].strip()
    result = json.loads(lines[-1])
    return result["metrics"]["accesses_per_s"]["value"], digest


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", default="1,2,3")
    parser.add_argument("--seconds", type=float, default=10.0)
    args = parser.parse_args(argv)
    seeds = [int(seed) for seed in args.seeds.split(",")]
    with open(ROOT / "BENCHMARK.json") as handle:
        bound = {m["name"]: m["bound"]
                 for m in json.load(handle)["end_to_end"]}["accesses_per_s"]

    ok = True
    print(f"accesses_per_s, fast paths on vs off (bound {bound:.0%})")
    for workload, expect_move in EXPECT_MOVE.items():
        rates = {True: [], False: []}
        same_digests = True
        for index, seed in enumerate(seeds):
            digests = {}
            order = (True, False) if index % 2 == 0 else (False, True)
            for fastpath in order:
                rate, digests[fastpath] = run_once(
                    workload, seed, args.seconds, fastpath
                )
                rates[fastpath].append(rate)
            same_digests &= digests[True] == digests[False]
        on = statistics.median(rates[True])
        off = statistics.median(rates[False])
        drop = 1.0 - off / on
        moved = drop > bound
        verdict = "recorded"
        if expect_move is not None:
            verdict = "as expected" if moved == expect_move else "UNEXPECTED"
            ok &= moved == expect_move
        ok &= same_digests
        print(f"  {workload:<17} on {on:12.1f}  off {off:12.1f}  "
              f"drop {drop:+.1%}  {verdict}; digests "
              f"{'identical' if same_digests else 'DIFFER'}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

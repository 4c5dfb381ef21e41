"""One set-up in a fresh interpreter, for ``setup_s``.

Run by ``run.py`` as ``python3 setup_probe.py <src-dir> <workload> <seed>``.
It imports ``repro`` from ``<src-dir>``, prepares the workload (platform
build and boot, fleet construction, or scenario validation) and prints
``time.monotonic()`` when done.  The caller read the same system-wide
clock just before starting this process, so the difference covers
interpreter start, imports and set-up.  Then it runs the reference
loop twice in the same process right after set-up, and
prints its mean time, which calibrates this probe.
"""

import sys
import time


def main() -> None:
    src, workload, seed = sys.argv[1], sys.argv[2], int(sys.argv[3])
    sys.path.insert(0, src)
    from workloads import WORKLOADS

    WORKLOADS[workload].prepare(seed)
    finished = time.monotonic()
    from reference import reference_loop

    ref = (reference_loop() + reference_loop()) / 2
    print(repr(finished), repr(ref))


if __name__ == "__main__":
    main()

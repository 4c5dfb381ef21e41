"""Multi-core execution layer (DESIGN.md §14).

:func:`run_tasks` is a multiprocess work-queue for embarrassingly
parallel grids: ``repro.check`` campaigns, ``repro.perfbench`` seed
sweeps, the policy tournament and ``fleet`` scenarios.  Results merge
in task-key order, never completion order, so the output is
byte-identical to the serial path at any worker count, and
``workers=1`` *is* the serial path.
"""

from .pool import PoolStats, run_tasks

__all__ = ["PoolStats", "run_tasks"]

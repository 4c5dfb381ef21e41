"""Charge host time to the simulator's layers from a cProfile run.

The profiler runs from the benchmark's own files; the program carries
no tracing of its own.  Each profiled function belongs to the layer of
the ``repro`` module that defines it (:func:`layer_of`).  Functions
outside ``repro`` -- the standard library and builtins -- belong to no
layer: their self time is charged to the layers that called them, in
proportion to the time each caller spent in them, following chains of
stdlib calls back to the nearest ``repro`` caller.

Two numbers per layer come out of :func:`attribute`:

``self_pct``
    the layer's share of all profiled self time, in percent;
``calls``
    calls entering the layer from a function of another layer
    (generator resumptions count, as the profiler sees them).

Profiled time is inflated by the profiler's per-call cost, so compare
shares between runs, never traced seconds with untraced ones.
"""

from __future__ import annotations

import cProfile
import os
from typing import Callable, Dict, Optional, Tuple

#: Modules with a layer of their own; other modules take their package's.
MODULE_LAYERS = {
    "kernel/uffd.py": "kernel.uffd",
    "kernel/mm.py": "kernel.swap",
    "kernel/swap.py": "kernel.swap",
    "kernel/kswapd.py": "kernel.swap",
    "kernel/lru.py": "kernel.lru",
    "core/writeback.py": "core.writeback",
    "core/lru_buffer.py": "core.lru_buffer",
    "core/port.py": "core.port",
}

#: Package -> layer.  ``core`` modules without an entry above (the
#: page tracker, code-path profiler, config) are the monitor's.
PACKAGE_LAYERS = {
    "sim": "sim", "core": "core.monitor", "mem": "mem", "kv": "kv",
    "net": "net", "blockdev": "blockdev", "obs": "obs",
    "workloads": "workloads", "vm": "vm", "market": "market",
    "scenario": "scenario", "check": "check", "policy": "policy",
    "faults": "faults",
}

#: Layer of repro code outside the listed layers (bench, parallel, ...).
OTHER = "other"
#: Layer of the benchmark's own code.
HARNESS = "harness"

Func = Tuple[str, int, str]


def layer_of(filename: str, repro_dir: str, harness_dir: str) -> Optional[str]:
    """The layer a function defined in ``filename`` belongs to.

    None for code outside ``repro`` and the harness (stdlib, builtins).
    """
    path = os.path.normpath(filename)
    if path.startswith(harness_dir + os.sep):
        return HARNESS
    if not path.startswith(repro_dir + os.sep):
        return None
    rel = path[len(repro_dir) + 1:].replace(os.sep, "/")
    if rel in MODULE_LAYERS:
        return MODULE_LAYERS[rel]
    package = rel.split("/", 1)[0] if "/" in rel else ""
    return PACKAGE_LAYERS.get(package, OTHER)


def attribute(
    stats: Dict[Func, tuple],
    classify: Callable[[str], Optional[str]],
) -> Tuple[Dict[str, float], Dict[str, float], float]:
    """Self time and entering calls per layer from ``cProfile`` stats.

    ``stats`` is ``Profile.stats`` after ``create_stats()``:
    ``func -> (cc, nc, tt, ct, callers)``, with
    ``callers[caller] = (nc, cc, tt, ct)`` for each calling function.
    Returns ``(self_seconds, calls, total_seconds)``; time that reaches
    no layer (a stdlib call with no repro caller) is left out of
    ``self_seconds`` but counted in the total.
    """
    own = {func: classify(func[0]) for func in stats}
    memo: Dict[Tuple[Func, int], Dict[str, float]] = {}

    def share(func: Func, weight_index: int, visiting: set) -> Dict[str, float]:
        """Fractions of ``func``'s time owed to each layer, weighting
        its callers by edge self time (2) or cumulative time (3)."""
        layer = own.get(func)
        if layer is not None:
            return {layer: 1.0}
        key = (func, weight_index)
        if key in memo:
            return memo[key]
        if func in visiting or func not in stats:
            return {}
        visiting.add(func)
        callers = stats[func][4]
        weights = {c: edge[weight_index] for c, edge in callers.items()}
        if sum(weights.values()) <= 0:
            weights = {c: edge[0] for c, edge in callers.items()}
        total = sum(weights.values())
        result: Dict[str, float] = {}
        if total > 0:
            for caller, weight in weights.items():
                if weight <= 0:
                    continue
                # A stdlib caller passes on the layers that called it.
                for layer, part in share(caller, 3, visiting).items():
                    result[layer] = result.get(layer, 0.0) + part * weight / total
        visiting.discard(func)
        memo[key] = result
        return result

    self_seconds: Dict[str, float] = {}
    calls: Dict[str, float] = {}
    total_seconds = 0.0
    for func, (_cc, _nc, tt, _ct, callers) in stats.items():
        total_seconds += tt
        for layer, part in share(func, 2, set()).items():
            self_seconds[layer] = self_seconds.get(layer, 0.0) + tt * part
        layer = own[func]
        if layer is None:
            continue
        for caller, edge in callers.items():
            foreign = 1.0 - share(caller, 3, set()).get(layer, 0.0)
            if foreign > 0:
                calls[layer] = calls.get(layer, 0.0) + edge[0] * foreign
    return self_seconds, calls, total_seconds


def profile_call(fn: Callable[[], object]) -> Tuple[object, Dict[Func, tuple]]:
    """Run ``fn`` under cProfile; returns its result and the stats."""
    profiler = cProfile.Profile()
    profiler.enable()
    try:
        result = fn()
    finally:
        profiler.disable()
    profiler.create_stats()
    return result, profiler.stats


def layer_report(
    stats: Dict[Func, tuple], repro_dir: str, harness_dir: str
) -> Tuple[Dict[str, float], Dict[str, int]]:
    """``(self_pct, calls)`` per layer, including ``other``/``harness``."""
    repro_dir = os.path.normpath(repro_dir)
    harness_dir = os.path.normpath(harness_dir)
    self_seconds, calls, total = attribute(
        stats, lambda name: layer_of(name, repro_dir, harness_dir)
    )
    pct = {
        layer: 100.0 * seconds / total if total > 0 else 0.0
        for layer, seconds in self_seconds.items()
    }
    return pct, {layer: int(round(n)) for layer, n in calls.items()}

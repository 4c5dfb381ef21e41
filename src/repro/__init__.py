"""FluidMem reproduction: full memory disaggregation, simulated end to end.

A Python reproduction of *FluidMem: Full, Flexible, and Fast Memory
Disaggregation for the Cloud* (ICDCS 2020).  See README.md for the
architecture tour, DESIGN.md for the substitution map (what the paper
ran on hardware vs. what is simulated here), and EXPERIMENTS.md for
paper-vs-measured results.

Quick start::

    from repro.bench.platform import build_platform

    platform = build_platform("fluidmem-ramcloud", seed=42)
    # platform.vm / platform.port / platform.monitor are live objects.
"""

import importlib

from ._version import __version__

_SUBPACKAGES = (
    "sim",
    "mem",
    "net",
    "kv",
    "faults",
    "coord",
    "blockdev",
    "kernel",
    "vm",
    "core",
    "obs",
)

__all__ = ["__version__", *_SUBPACKAGES]


def __getattr__(name):
    # Subpackages load on first attribute access, so a bare
    # ``import repro`` pulls in nothing but the version string.
    if name in _SUBPACKAGES:
        return importlib.import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

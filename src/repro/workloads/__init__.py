"""Workloads: pmbench, Graph500, YCSB, MongoDB — all memory-traced.

Graph500 is the only workload that needs numpy, so its names load on
first use (module ``__getattr__``): importing this package, and every
package that imports it, stays numpy-free.
"""

from .driver import HIT_COST_US, AccessDriver
from .io import FileReader, GuestCacheFileReader, KernelFileReader
from .mongo import MongoConfig, MongoServer, WiredTigerCache
from .pmbench import Pmbench, PmbenchConfig, PmbenchResult
from .ycsb import (
    ScrambledZipfianGenerator,
    UniformGenerator,
    YcsbClient,
    YcsbConfig,
    YcsbResult,
    ZipfianGenerator,
)

__all__ = [
    "AccessDriver",
    "HIT_COST_US",
    "Pmbench",
    "PmbenchConfig",
    "PmbenchResult",
    "Graph500",
    "Graph500Config",
    "Graph500Result",
    "KroneckerGraph",
    "generate_kronecker_edges",
    "YcsbClient",
    "YcsbConfig",
    "YcsbResult",
    "ZipfianGenerator",
    "ScrambledZipfianGenerator",
    "UniformGenerator",
    "MongoServer",
    "MongoConfig",
    "WiredTigerCache",
    "FileReader",
    "KernelFileReader",
    "GuestCacheFileReader",
]

_GRAPH500_NAMES = frozenset((
    "Graph500",
    "Graph500Config",
    "Graph500Result",
    "KroneckerGraph",
    "generate_kronecker_edges",
))


def __getattr__(name):
    if name in _GRAPH500_NAMES:
        from . import graph500

        return getattr(graph500, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

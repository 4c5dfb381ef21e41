"""numpy loads only with Graph500.

Graph500 is the one numpy user, so ``repro.workloads`` resolves its
names lazily.  Checked in a fresh interpreter: the test process has
imported numpy long before this runs.
"""

import os
import subprocess
import sys
from pathlib import Path

SRC = str(Path(__file__).resolve().parents[2] / "src")


def _run(code: str) -> str:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True,
        text=True, check=True,
    )
    return done.stdout.strip()


def test_packages_import_without_numpy():
    out = _run(
        "import sys\n"
        "import repro.bench.platform, repro.market, repro.scenario, "
        "repro.workloads\n"
        "print('numpy' in sys.modules)\n"
    )
    assert out == "False"


def test_graph500_names_still_import_from_the_package():
    out = _run(
        "import sys\n"
        "from repro.workloads import Graph500, generate_kronecker_edges\n"
        "from repro.workloads.graph500 import Graph500 as direct\n"
        "print(Graph500 is direct, 'numpy' in sys.modules)\n"
    )
    assert out == "True True"


def test_unknown_name_still_raises_attribute_error():
    out = _run(
        "import repro.workloads\n"
        "try:\n"
        "    repro.workloads.Graph5000\n"
        "except AttributeError as exc:\n"
        "    print(exc)\n"
    )
    assert "Graph5000" in out

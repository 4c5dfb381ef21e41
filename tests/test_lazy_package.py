"""``import repro`` loads no subpackage until one is asked for.

Checked in a fresh interpreter: the test process has imported most of
``repro`` long before this runs.
"""

import os
import subprocess
import sys
from pathlib import Path

SRC = str(Path(__file__).resolve().parents[1] / "src")


def _run(code: str) -> str:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True,
        text=True, check=True,
    )
    return done.stdout.strip()


def test_bare_import_loads_only_the_version():
    out = _run(
        "import sys, repro\n"
        "print(sorted(m for m in sys.modules "
        "if m == 'repro' or m.startswith('repro.')))\n"
    )
    assert out == "['repro', 'repro._version']"


def test_every_listed_name_still_resolves():
    out = _run(
        "import importlib, repro\n"
        "for name in repro.__all__:\n"
        "    value = getattr(repro, name)\n"
        "    if name != '__version__':\n"
        "        assert value is importlib.import_module('repro.' + name)\n"
        "from repro import core, sim\n"
        "print(sim.Environment.__module__, core.Monitor.__name__)\n"
    )
    assert out == "repro.sim.core Monitor"


def test_unknown_name_still_raises_attribute_error():
    out = _run(
        "import repro\n"
        "try:\n"
        "    repro.simm\n"
        "except AttributeError as exc:\n"
        "    print(exc)\n"
    )
    assert "simm" in out

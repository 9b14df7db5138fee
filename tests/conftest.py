"""Shared fixtures."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"


def _run_python(*args, **kwargs):
    """Run this interpreter on args, capturing text output.

    pyproject's ``pythonpath`` reaches the test process only, so the
    child gets this checkout's ``src`` at the front of PYTHONPATH.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env,
                          **kwargs)


@pytest.fixture
def run_python():
    """``run_python(*args, **kwargs)``: a subprocess that imports seqc from this checkout."""
    return _run_python

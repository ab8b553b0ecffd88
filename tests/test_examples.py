"""Every ``examples/*.py`` script runs to completion.

The scripts drive the public API end to end (analysis, baselines,
simulation); running each in a fresh interpreter keeps an API change
from breaking them silently.
"""

import glob
import os
import subprocess
import sys

import pytest

ROOT = os.path.join(os.path.dirname(__file__), "..")
SCRIPTS = sorted(glob.glob(os.path.join(ROOT, "examples", "*.py")))


def test_examples_exist():
    assert SCRIPTS


@pytest.mark.parametrize("script", SCRIPTS, ids=os.path.basename)
def test_example_script_exits_zero(script):
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p
    )
    result = subprocess.run(
        [sys.executable, script],
        capture_output=True,
        text=True,
        env=env,
        timeout=300,
    )
    assert result.returncode == 0, result.stderr[-4000:]

"""The example scripts run to completion — nothing else executes them."""

import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
EXAMPLES = sorted(f for f in os.listdir(os.path.join(ROOT, "examples")) if f.endswith(".py"))


@pytest.mark.parametrize("script", EXAMPLES)
def test_example_exits_cleanly(script):
    search_path = [os.path.join(ROOT, "src"), os.environ.get("PYTHONPATH")]
    done = subprocess.run(
        [sys.executable, os.path.join(ROOT, "examples", script)],
        env={**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, search_path))},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr[-2000:]

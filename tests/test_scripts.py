"""Smoke tests: the example scripts run to completion on small inputs."""

import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.mark.parametrize("argv", [
    ["scripts/wave_demo.py"],
    ["scripts/spectrum_sweep.py", "--depth", "2"],
    ["scripts/solve_sweep.py", "--depths", "3", "4", "--repeats", "1"],
])
def test_script_exits_zero(argv):
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    proc = subprocess.run(
        [sys.executable, *argv], cwd=ROOT, env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout

"""Smoke test: the walkthrough demos run to completion.

``05_scaling.py`` is left out; it takes about half a minute and its solver
calls are the ones acceptance criterion 6 already runs.
"""

import os
import subprocess
import sys

import pytest

ROOT = os.path.join(os.path.dirname(__file__), os.pardir)
DEMOS = ("01_huffman_basics.py", "02_mixed_radix.py", "03_reserved_lengths.py",
         "04_one_ended.py")


@pytest.mark.parametrize("demo", DEMOS)
def test_demo_runs(demo):
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    proc = subprocess.run([sys.executable, os.path.join(ROOT, "demos", demo)],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout

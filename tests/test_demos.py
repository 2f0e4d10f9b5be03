"""Smoke test: every narrative script in demos/ runs to completion.

The demos call the public API (density maps, the feature kernel
`featurize_chunks` and its columns `feature_names`, training, the tree
walk and cut, the CLI), so a change that breaks a documented call shows
up here.
"""

import glob
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DEMOS = sorted(glob.glob(os.path.join(ROOT, "demos", "*.py")))


def test_demos_found():
    assert len(DEMOS) == 5


@pytest.mark.parametrize("script", DEMOS, ids=os.path.basename)
def test_demo_runs(script, tmp_path):
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["TMPDIR"] = str(tmp_path)  # demos that write files use tempfile
    proc = subprocess.run([sys.executable, script], cwd=str(tmp_path), env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]

"""The package's documented surface: its export list and the README's
library quickstart."""

import ast
import os
import re
import subprocess
import sys

import nrfilter

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_all_is_exactly_what_init_imports():
    with open(nrfilter.__file__, "r", encoding="utf-8") as handle:
        tree = ast.parse(handle.read())
    imported = {
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    assert len(nrfilter.__all__) == len(set(nrfilter.__all__))
    assert set(nrfilter.__all__) == imported
    for name in nrfilter.__all__:
        assert hasattr(nrfilter, name), name


def test_readme_quickstart_runs(tmp_path):
    with open(os.path.join(ROOT, "README.md"), "r", encoding="utf-8") as handle:
        (code,) = re.findall(r"```python\n(.*?)```", handle.read(), re.S)
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    proc = subprocess.run([sys.executable, "-c", code], cwd=str(tmp_path), env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout.split()[0] in ("strong", "weak")

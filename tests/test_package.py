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


def test_no_module_imports_a_name_it_never_uses():
    src = os.path.join(ROOT, "src", "nrfilter")
    unused = []
    for name in sorted(os.listdir(src)):
        if not name.endswith(".py") or name == "__init__.py":
            continue
        with open(os.path.join(src, name), "r", encoding="utf-8") as handle:
            tree = ast.parse(handle.read())
        imported = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    imported[alias.asname or alias.name.split(".")[0]] = node.lineno
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                for alias in node.names:
                    imported[alias.asname or alias.name] = node.lineno
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [f"{name}:{line} {imported_name}" for imported_name, line in imported.items()
                   if imported_name not in used]
    assert not unused, unused


def test_json_is_decoded_in_decode_json_alone():
    """Every JSON input goes through core.decode_json, so one rule says how
    a text that does not decode (nesting too deep included) fails."""
    src = os.path.join(ROOT, "src", "nrfilter")
    sites = []
    for name in sorted(os.listdir(src)):
        if not name.endswith(".py"):
            continue
        with open(os.path.join(src, name), "r", encoding="utf-8") as handle:
            tree = ast.parse(handle.read())
        # ast.walk goes outside in, so an inner function names its own calls.
        owner = {id(node): function.name for function in ast.walk(tree)
                 if isinstance(function, ast.FunctionDef) for node in ast.walk(function)}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "json":
                sites += [f"{name}:{node.lineno} imports json.{alias.name}"
                          for alias in node.names if alias.name in ("load", "loads")]
            elif (isinstance(node, ast.Attribute) and node.attr in ("load", "loads")
                  and isinstance(node.value, ast.Name) and node.value.id == "json"):
                sites.append(f"{name} {owner.get(id(node))}")
    assert sites == ["core.py decode_json"], sites

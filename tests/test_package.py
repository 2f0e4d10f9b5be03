"""The package's documented surface: its export list and the README's
library quickstart."""

import ast
import dataclasses
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


def module_trees():
    """(file name, parsed tree) of each module of the package."""
    src = os.path.join(ROOT, "src", "nrfilter")
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name), "r", encoding="utf-8") as handle:
                yield name, ast.parse(handle.read())


def owners(tree):
    """The name of the innermost function around each node of ``tree``,
    by node id. ast.walk goes outside in, so an inner function names its
    own nodes."""
    return {id(node): function.name for function in ast.walk(tree)
            if isinstance(function, ast.FunctionDef) for node in ast.walk(function)}


def test_json_is_decoded_in_decode_json_alone():
    """Every JSON input goes through core.decode_json, so one rule says how
    a text that does not decode (nesting too deep included) fails."""
    sites = []
    for name, tree in module_trees():
        owner = owners(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "json":
                sites += [f"{name}:{node.lineno} imports json.{alias.name}"
                          for alias in node.names if alias.name in ("load", "loads")]
            elif (isinstance(node, ast.Attribute) and node.attr in ("load", "loads")
                  and isinstance(node.value, ast.Name) and node.value.id == "json"):
                sites.append(f"{name} {owner.get(id(node))}")
    assert sites == ["core.py decode_json"], sites


def test_configs_are_built_in_read_config_alone():
    """Every config read from a file, a flag or a model file goes through
    core.read_config, so one rule checks its keys and value kinds: no
    other function calls a config class, ``cls`` or ``replace`` with a
    ``**`` mapping."""
    builders = {name for name in nrfilter.__all__
                if name.endswith("Config") and dataclasses.is_dataclass(getattr(nrfilter, name))}
    builders |= {"cls", "replace"}
    sites = []
    for name, tree in module_trees():
        owner = owners(tree)
        sites += [f"{name} {owner.get(id(node))}" for node in ast.walk(tree)
                  if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                  and node.func.id in builders and any(k.arg is None for k in node.keywords)]
    assert sites == ["core.py read_config"], sites


def test_featurization_is_declared_and_read_in_one_place():
    """FeatureConfig alone declares the five featurization fields, and
    tree alone reads a model payload's "featurization" key, so a model is
    applied under the one config type its file holds."""
    featurization = {f.name for f in dataclasses.fields(nrfilter.FeatureConfig)}
    assert featurization == {"decay_rate", "bins", "neighbor_window", "scopes", "orphan_policy"}
    declared, readers = [], []
    for name, tree in module_trees():
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef):
                declared += [f"{name} {node.name}.{item.target.id}" for item in node.body
                             if isinstance(item, ast.AnnAssign)
                             and isinstance(item.target, ast.Name)
                             and item.target.id in featurization]
            key = None
            if isinstance(node, ast.Subscript):
                key = node.slice
            elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                  and node.func.attr in ("get", "pop", "setdefault") and node.args):
                key = node.args[0]
            if isinstance(key, ast.Constant) and key.value == "featurization":
                readers.append(name)
    assert sorted(declared) == [f"core.py FeatureConfig.{field}" for field in sorted(featurization)]
    assert set(readers) == {"tree.py"}, readers


def test_config_flags_are_built_from_their_fields():
    """cli._add_config_flags alone adds a flag spelled like a config field,
    so the flag's type comes from its field and the config class alone
    checks its value. --no-class-weights, the one flag not spelled like
    its field, is the exception."""
    config_fields = {f.name for cls in (nrfilter.FeatureConfig, nrfilter.TrainConfig,
                                        nrfilter.PipelineConfig, nrfilter.SynthConfig)
                     for f in dataclasses.fields(cls)}
    with open(os.path.join(ROOT, "src", "nrfilter", "cli.py"), "r", encoding="utf-8") as handle:
        tree = ast.parse(handle.read())
    owner = owners(tree)
    sites = []
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr == "add_argument"):
            continue
        flags = [arg.value for arg in node.args
                 if isinstance(arg, ast.Constant) and str(arg.value).startswith("--")]
        spelled = {flag[2:].replace("-", "_") for flag in flags}
        spelled |= {k.value.value for k in node.keywords
                    if k.arg == "dest" and isinstance(k.value, ast.Constant)}
        if spelled & config_fields and owner.get(id(node)) != "_add_config_flags":
            sites.append(f"{owner.get(id(node))} {' '.join(flags)}")
    assert sites == ["build_parser --no-class-weights"], sites

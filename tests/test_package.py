"""The package surface: submodules are the API, their ``__all__`` lists resolve,
and nothing outside the standard library and numpy is imported."""

from __future__ import annotations

import ast
import importlib
import os
import pkgutil
import subprocess
import sys
import types
from pathlib import Path

import pytest

import clusterchain

MODULES = sorted(info.name for info in pkgutil.iter_modules(clusterchain.__path__))


def test_root_exposes_only_the_version():
    public = [
        name for name, value in vars(clusterchain).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    ]
    assert public == []
    assert clusterchain.__version__


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(f"clusterchain.{name}")
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert missing == []


@pytest.mark.parametrize("path", sorted(Path(clusterchain.__file__).parent.glob("*.py")),
                         ids=lambda path: path.stem)
def test_imports_only_stdlib_and_numpy(path):
    # numpy is the one runtime dependency; a relative import stays in the package
    tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            imported.add(node.module)
    allowed = sys.stdlib_module_names | {"numpy", "clusterchain"}
    assert sorted(m for m in imported if m.split(".")[0] not in allowed) == []


@pytest.mark.parametrize("blocked, argv", [
    ("networkx", ["verify", "--samples", "5"]),
    ("scipy", ["resources", "--k", "3", "--m", "1", "--n", "5",
               "--sources", "600:2400:600", "--method", "exact"]),
], ids=["networkx", "scipy"])
def test_cli_runs_without(blocked, argv):
    # a None entry in sys.modules makes any import of the blocked module fail
    script = (
        "import sys\n"
        f"sys.modules[{blocked!r}] = None\n"
        "from clusterchain.cli import main\n"
        f"sys.exit(main({argv!r}))\n"
    )
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(clusterchain.__file__))}
    done = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr

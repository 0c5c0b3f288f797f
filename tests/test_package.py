"""The package surface: submodules are the API, their ``__all__`` lists resolve,
nothing outside the standard library and numpy is imported, every module-level
import is used or re-exported, and each CLI subcommand loads only the layers
it runs."""

from __future__ import annotations

import ast
import importlib
import json
import os
import pkgutil
import subprocess
import sys
import types
from pathlib import Path

import pytest

import clusterchain
from clusterchain import cli

MODULES = sorted(info.name for info in pkgutil.iter_modules(clusterchain.__path__))
SOURCES = sorted(Path(clusterchain.__file__).parent.glob("*.py"))


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


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.stem)
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


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.stem)
def test_module_level_imports_are_used_or_exported(path):
    # an import that nothing reads and ``__all__`` does not re-export is dead code
    tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
    imported = {
        (alias.asname or alias.name).split(".")[0]
        for node in tree.body
        if isinstance(node, (ast.Import, ast.ImportFrom))
        and not (isinstance(node, ast.ImportFrom) and node.module == "__future__")
        for alias in node.names
    }
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    exported = set()
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
        ):
            exported.update(ast.literal_eval(node.value))
    assert sorted(imported - used - exported) == []


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.stem)
def test_grammar_is_python_3_10(path):
    # the package supports Python 3.10; this checks its syntax only, not
    # whether it calls a library API that 3.10 lacks
    ast.parse(path.read_text(encoding="utf-8"), str(path), feature_version=(3, 10))


def _run_python(*args: str) -> subprocess.CompletedProcess:
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(clusterchain.__file__))}
    return subprocess.run([sys.executable, *args], env=env,
                          capture_output=True, text=True, timeout=120)


@pytest.mark.parametrize("blocked, argv", [
    ("networkx", ["verify", "--samples", "5"]),
    ("numpy", ["verify", "--samples", "5"]),
    ("numpy", ["constants", "--m", "4", "--b", "7,3"]),
    ("scipy", ["resources", "--k", "3", "--m", "1", "--n", "5",
               "--sources", "600:2400:600", "--method", "exact"]),
], ids=["networkx", "numpy", "numpy_constants", "scipy"])
def test_cli_runs_without(blocked, argv):
    # a None entry in sys.modules makes any import of the blocked module fail
    script = (
        "import sys\n"
        f"sys.modules[{blocked!r}] = None\n"
        "from clusterchain.cli import main\n"
        f"sys.exit(main({argv!r}))\n"
    )
    done = _run_python("-c", script)
    assert done.returncode == 0, done.stderr


def _layers_loaded(argv: list[str]) -> set[str]:
    """The ``clusterchain`` modules loaded after ``cli.main(argv)`` in a fresh process."""
    script = (
        "import json, sys\n"
        "from clusterchain.cli import main\n"
        f"code = main({argv!r})\n"
        "print(json.dumps(sorted(m for m in sys.modules if m.startswith('clusterchain.'))))\n"
        "sys.exit(code)\n"
    )
    done = _run_python("-c", script)
    assert done.returncode == 0, done.stderr
    return set(json.loads(done.stdout.splitlines()[-1]))


@pytest.mark.parametrize("argv, absent", [
    (["resources", "--k", "3", "--m", "1", "--n", "5", "--sources", "600:1200:600",
      "--method", "exact"], {"clusterchain.optimizer", "clusterchain.envelope"}),
    (["constants", "--m", "4", "--b", "7,3"], {"clusterchain.clusterbuild"}),
    (["rate", "--m", "4", "--b", "7,3", "--n", "100", "--L", "100:200:50"],
     {"clusterchain.clusterbuild"}),
], ids=["resources", "constants", "rate"])
def test_subcommand_loads_only_its_layers(argv, absent):
    loaded = _layers_loaded(argv)
    assert "clusterchain.graphstate" in loaded  # cli's module-level import
    assert loaded & absent == set()


# one argument list of each shape the benchmark's cli_session runs
CLI_SESSION_ARGVS = [
    ["constants", "--m", "4", "--b", "7,3"],
    ["rate", "--m", "4", "--b", "7,3", "--n", "100", "--L", "50:550:50"],
    ["envelope", "--m", "4", "--b", "7,3", "--L", "100:600:50"],
    ["optimize", "--L", "300", "--k", "7"],
    ["resources", "--k", "5", "--m", "1", "--n", "20", "--sources", "120000:180000:20000",
     "--method", "exact"],
    ["verify", "--seed", "11"],
]


@pytest.mark.parametrize("argv", CLI_SESSION_ARGVS, ids=lambda argv: argv[0])
def test_module_entry_point_matches_main(argv, capsys):
    # ``python -m clusterchain.cli`` runs the subcommands' own imports under
    # ``__main__``; its exit code and stdout must be those of ``cli.main``
    done = _run_python("-m", "clusterchain.cli", *argv)
    code = cli.main(argv)
    assert (done.returncode, done.stdout) == (code, capsys.readouterr().out)
    assert code == 0, done.stderr

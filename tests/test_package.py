"""The package surface: submodules are the API, and their ``__all__`` lists resolve."""

from __future__ import annotations

import importlib
import pkgutil
import types

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

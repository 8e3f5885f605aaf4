"""Every ``__all__`` in the package names something that exists, once.

A deletion that leaves a name in an ``__all__`` list breaks ``from module
import *`` and every reader who trusts the list; this guard fails instead.
"""

import importlib
import pkgutil

import pytest

import repro

MODULES = ["repro"] + sorted(
    m.name for m in pkgutil.walk_packages(repro.__path__, "repro.")
)
EXPORTING = [
    name for name in MODULES
    if hasattr(importlib.import_module(name), "__all__")
]


def test_the_package_exports_names():
    assert "repro" in EXPORTING and len(EXPORTING) > 1


@pytest.mark.parametrize("name", EXPORTING)
def test_all_resolves_without_duplicates(name):
    module = importlib.import_module(name)
    exported = module.__all__
    missing = [x for x in exported if not hasattr(module, x)]
    assert missing == [], f"{name}.__all__ names missing attributes: {missing}"
    repeated = sorted({x for x in exported if exported.count(x) > 1})
    assert repeated == [], f"{name}.__all__ lists names twice: {repeated}"

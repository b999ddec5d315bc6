"""Every exported name exists: a function deleted or renamed must leave
its module's ``__all__`` too."""

import importlib
import pkgutil

import pytest

import perception_games

MODULES = sorted(info.name for info in pkgutil.iter_modules(perception_games.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_module_exports_are_defined(name):
    module = importlib.import_module(f"perception_games.{name}")
    exported = module.__all__
    assert len(set(exported)) == len(exported)
    assert [n for n in exported if not hasattr(module, n)] == []


def test_package_exports_import():
    namespace: dict = {}
    for name in perception_games.__all__:
        exec(f"from perception_games import {name}", namespace)
    assert set(perception_games.__all__) <= set(namespace)
    assert len(set(perception_games.__all__)) == len(perception_games.__all__)


def test_modules_are_found():
    assert {"kernels", "penalties", "simplex", "single", "two_player"} <= set(MODULES)

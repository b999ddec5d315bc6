"""The package's modules import in layers: ``simplex``, ``penalties`` and
``model`` know nothing of the solvers, and ``kernels`` nothing of the
solvers that call it. So a game knows nothing of its pack, which
``kernels`` builds from the game's own ranges."""

import ast
from pathlib import Path

import pytest

import perception_games

SOLVERS = {"single", "two_player", "experiments", "cli"}
FORBIDDEN = {
    "simplex": SOLVERS | {"kernels"},
    "penalties": SOLVERS | {"kernels"},
    "model": SOLVERS | {"kernels"},
    "kernels": SOLVERS,
}


def _imported(module: str) -> set[str]:
    """The package modules that ``module`` imports, at any depth of its
    source: ``from . import x``, ``from .x import y``, ``import
    perception_games.x`` and ``from perception_games.x import y``."""
    source = Path(perception_games.__file__).with_name(f"{module}.py").read_text()
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            if node.level == 1 and node.module is None:
                found.update(alias.name for alias in node.names)
            elif node.level == 1:
                found.add(node.module.split(".")[0])
            elif node.module and node.module.startswith("perception_games"):
                parts = node.module.split(".")
                found.update([parts[1]] if len(parts) > 1 else (alias.name for alias in node.names))
        elif isinstance(node, ast.Import):
            for alias in node.names:
                parts = alias.name.split(".")
                if parts[0] == "perception_games" and len(parts) > 1:
                    found.add(parts[1])
    return found


@pytest.mark.parametrize("module", sorted(FORBIDDEN))
def test_lower_layers_import_no_upper_one(module):
    assert _imported(module) & FORBIDDEN[module] == set()


def test_the_reader_sees_imports():
    assert {"kernels", "model", "simplex"} <= _imported("single")
    assert {"penalties", "simplex"} <= _imported("model")

"""The package's modules import in layers: ``simplex``, ``penalties`` and
``model`` know nothing of the solvers, and ``kernels`` nothing of the
solvers that call it. So a game knows nothing of its pack, which
``kernels`` builds from the game's own ranges. And the rule of which
games share a cell screen and a kernel sweep lives only in ``kernels``:
no other module reads ``GamePack.bound_plan``, by which ``_groups`` tells
a template's packs, or names ``_groups``, ``_screen`` or ``_reduce``."""

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


MODULES = sorted(path.stem for path in Path(perception_games.__file__).parent.glob("*.py"))
GROUPING = {"bound_plan", "_groups", "_screen", "_reduce"}


def _tree(module: str) -> ast.Module:
    return ast.parse(Path(perception_games.__file__).with_name(f"{module}.py").read_text())


def _imported(module: str) -> set[str]:
    """The package modules that ``module`` imports, at any depth of its
    source: ``from . import x``, ``from .x import y``, ``import
    perception_games.x`` and ``from perception_games.x import y``."""
    found = set()
    for node in ast.walk(_tree(module)):
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


def _names(module: str) -> set[str]:
    """Every name ``module``'s source reads, binds or imports: names,
    attributes, definitions and imported names with their aliases."""
    found = set()
    for node in ast.walk(_tree(module)):
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            found.add(node.name)
        elif isinstance(node, ast.alias):
            found.update([node.name.split(".")[-1], node.asname or ""])
    return found


@pytest.mark.parametrize("module", [m for m in MODULES if m != "kernels"])
def test_grouping_lives_only_in_kernels(module):
    assert _names(module) & GROUPING == set()


def test_the_reader_sees_grouping_names():
    assert GROUPING <= _names("kernels")


def test_the_per_player_rule_lives_below_two_player():
    """A two-player player's penalties, posteriors and off-path fill are
    its observer games' packs: ``two_player`` binds, updates and
    evaluates no penalty itself."""
    assert _names("two_player") & {"bind", "_posteriors", "penalty_batch"} == set()

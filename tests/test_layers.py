"""The package's modules import one way only, each from modules of lower
layers, and only at module level."""
import ast
from pathlib import Path

import pytest

import su2link

PACKAGE = Path(su2link.__file__).parent
# a module may import only from layers below its own; __init__ re-exports all
LAYERS = {
    "errors": 0,
    "linalg": 1,
    "pauli": 1,
    "linkmodel": 2,
    "compiler": 3,
    "matter": 3,
    "dynamics": 3,
    "cli": 4,
}
MODULES = sorted(path.stem for path in PACKAGE.glob("*.py") if path.stem != "__init__")


def test_every_module_has_a_layer():
    assert MODULES == sorted(LAYERS)


@pytest.mark.parametrize("module", MODULES)
def test_imports_go_one_way(module):
    tree = ast.parse((PACKAGE / f"{module}.py").read_text(encoding="utf-8"))
    top_level = {id(node) for node in tree.body}
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        assert id(node) in top_level, f"{module}.py:{node.lineno} imports inside a block"
        if isinstance(node, ast.ImportFrom) and node.level:
            # "from .pauli import dense" names its module; "from . import pauli" its aliases
            targets = [node.module] if node.module else [alias.name for alias in node.names]
            for target in targets:
                assert LAYERS[target] < LAYERS[module], f"{module}.py:{node.lineno} imports {target}"

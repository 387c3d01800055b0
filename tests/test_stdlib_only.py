"""The runtime is pure standard library: nothing under src/pcg imports
a module from outside it or the package itself."""

import ast
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "pcg"


def _imported_modules(path: Path) -> set[str]:
    """Top-level names of every absolute import in the file, nested ones too."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
    return names


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_imports_only_the_standard_library(path):
    outside = _imported_modules(path) - set(sys.stdlib_module_names) - {"pcg"}
    assert not outside, f"{path.name} imports {sorted(outside)}"

"""The runtime is pure standard library: nothing under src/pcg imports
a module from outside it or the package itself, and no module or test
file imports a name it never uses. The package exports exactly the names
its `__init__` imports."""

import ast
import sys
from pathlib import Path

import pytest

import pcg

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src" / "pcg"


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


def _unused_imports(path: Path) -> set[str]:
    """Names the file imports, nested imports too, that its code never reads.

    The base of an attribute access is itself an ast.Name, so one walk
    over the names covers `module.attr` as well.
    """
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
    return imported - {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}


@pytest.mark.parametrize(
    "path",
    sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
    + sorted(TESTS.glob("*.py")),
    ids=lambda p: p.name if p.parent == SRC else f"tests/{p.name}",
)
def test_every_import_is_used(path):
    unused = _unused_imports(path)
    assert not unused, f"{path.name} imports {sorted(unused)} and never uses them"


def test_public_names_are_the_package_imports():
    # `__init__` imports only to export, so a stale `__all__` entry or a
    # name imported and never exported shows here
    tree = ast.parse((SRC / "__init__.py").read_text(encoding="utf-8"))
    imported = [
        a.asname or a.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        for a in node.names
    ]
    assert sorted(pcg.__all__) == sorted(imported)
    assert all(hasattr(pcg, name) for name in pcg.__all__)

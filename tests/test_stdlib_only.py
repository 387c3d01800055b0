"""The runtime is pure standard library: nothing under src/pcg imports
a module from outside it or the package itself, and no module or test
file imports a name it never uses. The package exports exactly the names
its `__init__` imports, and every function and class it defines is used
by the package or the benchmark, or is named on a list with its reason."""

import ast
import sys
from collections import Counter
from pathlib import Path

import pytest

import pcg

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src" / "pcg"
PERFBENCH = TESTS.parent / "perfbench"


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


# Defined in src/pcg and read by nothing there or in perfbench, with the reason
# each stays: the acceptance gate checks it, or the corpus is built from it.
UNREFERENCED = {
    "dk": "gate A8 checks the walk counts",
    "refine_bipartite": "gate A5 checks the parity refinement",
    "sheared_stripes": "gate A10 builds its coloring",
    "near_distinctness": "gate A13 checks the lemma",
    "checkerboard": "a corpus generator",
    "constant": "a corpus generator",
    "stripes": "a corpus generator",
}


def _names(node: ast.AST) -> Counter:
    """Every name read, attribute taken or name imported under `node`."""
    names: Counter = Counter()
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            names[n.id] += 1
        elif isinstance(n, ast.Attribute):
            names[n.attr] += 1
        elif isinstance(n, (ast.Import, ast.ImportFrom)):
            names.update(a.name for a in n.names)
    return names


def test_every_definition_is_used_or_listed():
    trees = [ast.parse(p.read_text(encoding="utf-8")) for p in sorted(SRC.glob("*.py"))]
    used = sum((_names(t) for t in trees), Counter())
    # perfbench names what it times as strings, e.g. in spans.LAYERS
    bench: set[str] = set()
    for path in sorted(PERFBENCH.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        bench |= set(_names(tree))
        bench |= {n.value for n in ast.walk(tree) if isinstance(n, ast.Constant)}
    unused = set()
    for d in (d for t in trees for d in ast.walk(t)):
        if not isinstance(d, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            continue
        if d.name.startswith("__") and d.name.endswith("__"):
            continue  # the language calls these
        if used[d.name] == _names(d)[d.name] and d.name not in bench:
            unused.add(d.name)
    assert unused == set(UNREFERENCED), sorted(unused ^ set(UNREFERENCED))

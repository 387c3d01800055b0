"""A cold `import pcg.cli` loads only what its commands run.

Each test starts a fresh interpreter, so nothing this test session
imported can hide a module that the CLI loads, or fails to load."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

from pcg import fixtures
from pcg.cli import main
from pcg.coloring import render

ROOT = Path(__file__).resolve().parent.parent

# Loaded only by the commands that use them: `--jobs` > 1, `stationary`
# and `fixture`.
LAZY = ("multiprocessing", "fractions", "pcg.fixtures")

# Imports pcg.cli, reports the loaded modules and the functions each pcg
# module defines, then runs the argv lists read from stdin in the same
# process and reports their exit codes and output.
COLD = """
import contextlib, io, json, sys
import pcg.cli

loaded = sorted(sys.modules)
defined = {
    name: sorted(k for k, v in vars(mod).items()
                 if getattr(v, "__module__", None) == name)
    for name, mod in sys.modules.items()
    if name == "pcg" or name.startswith("pcg.")
}
runs = []
for argv in json.load(sys.stdin):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = pcg.cli.main(argv)
    runs.append([code, out.getvalue()])
print(json.dumps({"loaded": loaded, "defined": defined, "runs": runs,
                  "after": sorted(sys.modules)}))
"""


def cold(*argvs):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-c", COLD],
        input=json.dumps(argvs),
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
        check=True,
    )
    return json.loads(proc.stdout)


def perfbench_layers() -> dict[str, str]:
    """perfbench's LAYERS table, read without importing perfbench."""
    tree = ast.parse((ROOT / "perfbench" / "spans.py").read_text(encoding="utf-8"))
    for node in tree.body:
        target = node.targets[0] if isinstance(node, ast.Assign) else None
        if isinstance(target, ast.Name) and target.id == "LAYERS":
            return ast.literal_eval(node.value)
    raise AssertionError("perfbench/spans.py defines no LAYERS")


def test_import_skips_what_no_command_needs_at_start():
    loaded = set(cold()["loaded"])
    assert [name for name in LAZY if name in loaded] == []


def test_import_loads_every_perfbench_layer():
    # the benchmark wraps module attributes right after `import pcg.cli`;
    # a layer in a module not yet loaded would go untraced without error
    defined = {fn for fns in cold()["defined"].values() for fn in fns}
    layers = perfbench_layers()
    assert layers and set(layers.values()) <= defined


def test_lazy_commands_run_from_a_cold_start(tmp_path, capsys):
    f = tmp_path / "f.pcg"
    f.write_text(render(fixtures.get("II-base")))
    enum = ["enumerate", "--width", "4", "--height", "4", "--colors", "3"]
    got = cold(["fixture", "list"], ["stationary", str(f)], enum + ["--jobs", "2"])
    want = []
    for argv in (["fixture", "list"], ["stationary", str(f)], enum):
        code = main(argv)
        want.append([code, capsys.readouterr().out])
    assert got["runs"] == want
    assert want[1] == [0, "1 1/4\n2 1/8\n3 1/8\n4 1/2\n"]
    assert {"fractions", "pcg.fixtures"} <= set(got["after"])
    # --jobs is capped at the CPU count, so one CPU never starts the pool
    pooled = (os.cpu_count() or 1) > 1
    assert ("multiprocessing" in got["after"]) == pooled

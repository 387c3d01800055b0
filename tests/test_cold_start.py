"""A cold `import pcg.cli` loads only what its commands run.

Each test starts a fresh interpreter, so nothing this test session
imported can hide a module that the CLI loads, or fails to load."""

import ast
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from pcg import fixtures, search
from pcg.cli import main
from pcg.coloring import render

ROOT = Path(__file__).resolve().parent.parent

# Loaded only by the commands that use them: `stationary` and `fixture`.
LAZY = ("fractions", "pcg.fixtures")
# Loaded by no command: `--jobs` forks its workers with os.fork.
NEVER = ("multiprocessing",)

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
    assert [name for name in LAZY + NEVER if name in loaded] == []


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
    assert set(LAZY) <= set(got["after"])
    assert [name for name in NEVER if name in got["after"]] == []


def test_jobs_leave_no_process_behind(capsys):
    """Two --jobs searches in one fresh interpreter leave no process in
    its group once the interpreter has exited."""
    shapes = [["--width", "4", "--height", "8", "--colors", "4"],
              ["--width", "4", "--height", "6", "--colors", "5"]]
    want = []
    for shape in shapes:
        assert main(["enumerate", *shape]) == 0
        want.append([0, capsys.readouterr().out])
    argvs = [["enumerate", *shape, "--jobs", "2"] for shape in shapes]
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.Popen(
        [sys.executable, "-c", COLD],
        stdin=subprocess.PIPE,
        stdout=subprocess.PIPE,
        text=True,
        env=env,
        start_new_session=True,
    )
    out, _ = proc.communicate(json.dumps(argvs), timeout=120)
    assert proc.returncode == 0
    assert json.loads(out)["runs"] == want
    with pytest.raises(ProcessLookupError):
        os.killpg(proc.pid, 0)


@pytest.mark.skipif(search._cpus() < 2, reason="--jobs 2 forks only on 2 CPUs or more")
@pytest.mark.parametrize("kill", [os.killpg, os.kill], ids=["group", "caller"])
def test_an_interrupted_search_leaves_no_process_behind(kill):
    """SIGINT about 0.5 s into a `--jobs 2` search of 1.3 s (on 2 vCPUs),
    to its process group as Ctrl-C sends it, or to the caller alone, whose
    child then runs on until the caller kills it: the command exits, and
    no child outlives it."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    argv = ["enumerate", "--width", "8", "--height", "8", "--colors", "5", "--jobs", "2"]
    proc = subprocess.Popen(
        [sys.executable, "-m", "pcg", *argv],
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
        env=env,
        start_new_session=True,
    )
    try:
        time.sleep(0.5)
        kill(proc.pid, signal.SIGINT)
        proc.wait(timeout=10)
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    with pytest.raises(ProcessLookupError):
        os.killpg(proc.pid, 0)

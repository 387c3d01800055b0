"""Self-tests of the benchmark, on tiny inputs.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import random
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

import pytest

import run

WORKLOADS = ["sweep", "torus", "classify"]
CONTRACT = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def bench(workload: str, *extra: str, trace: int = 0, cwd: Path = run.ROOT):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7",
           "--seconds", "1", "--trace", str(trace), "--size", "tiny", *extra]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def result_of(proc) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_tiny_run_is_correct_and_reports_every_metric(workload, trace):
    result = result_of(bench(workload, trace=trace))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    names = [m["name"] for m in CONTRACT["per_layer" if trace else "end_to_end"]]
    assert sorted(result["metrics"]) == sorted(names)


CORRUPT = {
    "sweep": lambda ref: ref["sweep"]["2,1,2"].__setitem__(0, 99),
    "torus": lambda ref: ref["torus"]["3x3/3"].__setitem__(1, "0" * 16),
    "classify": lambda ref: ref["fixtures"]["b"].__setitem__("canonical", "# pcg v1\n"),
}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_wrong_reference_is_caught(workload, tmp_path):
    ref = json.loads(run.REFERENCE.read_text(encoding="utf-8"))
    CORRUPT[workload](ref)
    bad = tmp_path / "reference.json"
    bad.write_text(json.dumps(ref), encoding="utf-8")
    result = result_of(bench(workload, "--reference", str(bad)))
    assert not result["correct"] and result["failed"] > 0


TINY_JOBS = {
    "sweep": {"lattices": run.sweep_lattices(3)},
    "torus": {"shapes": run.TORUS_SHAPES["tiny"], "jobs": 1},
}


def _outputs(result: dict) -> list:
    return [(c["key"], c.get("digest"), c.get("stdout")) for c in result["calls"]]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_and_untraced_outputs_match(workload, tmp_path):
    if workload == "classify":
        wl = run.Workload("classify", 7, "tiny", json.loads(run.REFERENCE.read_text()), tmp_path)
        job = wl.job(0)
    else:
        job = TINY_JOBS[workload]
    plain = run.run_worker(workload, job)
    traced = run.run_worker(workload, job, True, str(tmp_path / "spans.json"))
    assert plain is not None and traced is not None
    assert _outputs(plain) == _outputs(traced)
    assert traced["layers"]["search.enumerate_colorings" if workload != "classify"
                            else "cli.main"]["calls"] == len(traced["calls"])
    spans = json.loads((tmp_path / "spans.json").read_text())
    assert spans and all(s["end"] >= s["start"] for s in spans)


def test_moved_fixtures_stay_perfect_and_random_tori_do_not():
    sys.path.insert(0, str(run.SRC))
    from pcg import fixtures

    rng = random.Random(0)
    for fid in fixtures.fixture_ids():
        lat, rows = run.read_pcg(fixtures.info(fid).text)
        assert run.is_perfect(lat, rows), fid
        g = rng.choice(run.D4)
        assert run.is_perfect(*run.moved(lat, rows, g, (5, 3), 2)), fid
    lat, rows = run.random_torus(rng, 16)
    assert not run.is_perfect(lat, rows)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("sweep", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_harrell_davis_quantile():
    assert run.beta_cdf(2, 3, 0.4) == pytest.approx(0.5248)
    assert run.quantile([4.0], 0.95) == 4.0
    assert run.quantile([float(i) for i in range(11)], 0.5) == pytest.approx(5.0)
    xs = [random.Random(1).random() for _ in range(2000)]
    assert run.quantile(xs, 0.95) == pytest.approx(statistics.quantiles(xs, n=20)[18], abs=0.01)

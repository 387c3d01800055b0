#!/usr/bin/env python3
"""Run the benchmark and record its results in BENCH_<label>.json files.

    python3 tools/bench_record.py --workloads torus sweep --seeds 1 2 3 \\
        --seconds 20 13_parent=../pcg-parent 13_change

Each LABEL[=CHECKOUT] names one checkout of the repository (by default
the one holding this script). Every run is ``perfbench/run.py --workload
W --seed S --seconds T`` of that checkout, with this Python.
For each workload and seed the checkouts run in turn, the first of one
seed last in the next, so a drift in host speed falls on all alike.

BENCH_<label>.json, written to --out-dir, holds the checkout's git
revision, ``src_lines`` (the lines of its src/pcg/*.py, counted as
perfbench/run.py counts them), the Python version, nproc, the CPU model
and every run: its workload and seed, run.py's context line and its last
line, the result, and ``calibration_s``, the time of a fixed pure-Python
loop taken just before the run. Runs within one file compare as they
are; to compare files recorded on different days, scale each by its
calibration_s. Standard library only.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent.parent


def revision(root: Path) -> str | None:
    """The checkout's commit, with "+dirty" if tracked files changed."""
    try:
        rev = subprocess.run(["git", "-C", str(root), "rev-parse", "HEAD"],
                             capture_output=True, text=True, check=True).stdout.strip()
        dirty = subprocess.run(["git", "-C", str(root), "status", "--porcelain",
                                "--untracked-files=no"],
                               capture_output=True, text=True, check=True).stdout
    except (OSError, subprocess.CalledProcessError):
        return None
    return rev + ("+dirty" if dirty.strip() else "")


def src_lines(root: Path) -> int:
    """Lines of the checkout's src/pcg/*.py, counted as perfbench/run.py does."""
    return sum(len(p.read_text(encoding="utf-8").splitlines())
               for p in sorted((root / "src" / "pcg").glob("*.py")))


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def calibration_s(repeats: int = 3) -> float:
    """The least time, in seconds, of a fixed loop of integer, tuple and
    dict work in this interpreter: a measure of the host's speed at the
    time of a run, independent of the code under test."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        seen: dict[tuple[int, int], int] = {}
        x = 1
        for i in range(200_000):
            x = (x * 1103515245 + 12345) & 0x7FFFFFFF
            key = (x & 1023, i & 7)
            seen[key] = seen.get(key, 0) + 1
        best = min(best, time.perf_counter() - start)
    return best


def run_once(root: Path, workload: str, seed: int, seconds: float) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds)]
    calibration = calibration_s()
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True)
    lines = [ln for ln in proc.stdout.splitlines() if ln.strip()]
    run = {"workload": workload, "seed": seed, "seconds": seconds,
           "returncode": proc.returncode, "calibration_s": calibration}
    if proc.returncode == 0 and len(lines) >= 2:
        run["context"] = json.loads(lines[-2]).get("context")
        run["result"] = json.loads(lines[-1])
    else:
        run["stderr"] = proc.stderr[-2000:]
    return run


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("checkouts", nargs="+", metavar="LABEL[=CHECKOUT]")
    ap.add_argument("--workloads", nargs="+", default=["sweep", "torus", "classify"],
                    choices=["sweep", "torus", "classify"])
    ap.add_argument("--seeds", nargs="+", type=int, default=[1])
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--out-dir", type=Path, default=HERE)
    args = ap.parse_args(argv)

    records = {}
    for spec in args.checkouts:
        label, _, path = spec.partition("=")
        root = Path(path).resolve() if path else HERE
        if not (root / "perfbench" / "run.py").is_file():
            ap.error(f"{root} has no perfbench/run.py")
        records[label] = (root, {
            "label": label,
            "revision": revision(root),
            "src_lines": src_lines(root),
            "python": platform.python_version(),
            "nproc": len(os.sched_getaffinity(0)),
            "cpu": cpu_model(),
            "runs": [],
        })
    failed = 0
    turn = list(records.items())
    for workload in args.workloads:
        for seed in args.seeds:
            for label, (root, record) in turn:
                run = run_once(root, workload, seed, args.seconds)
                record["runs"].append(run)
                result = run.get("result", {})
                wall = result.get("metrics", {}).get("wall_s", {}).get("value")
                print(f"{label} {workload} seed {seed}: wall_s {wall} "
                      f"correct {result.get('correct')} "
                      f"calibration_s {run['calibration_s']:.3f}", file=sys.stderr)
                failed += not result.get("correct", False)
            turn.reverse()
    args.out_dir.mkdir(parents=True, exist_ok=True)
    for label, (_, record) in records.items():
        path = args.out_dir / f"BENCH_{label}.json"
        path.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
        print(path)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())

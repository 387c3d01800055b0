"""Record the expected outputs that every benchmark run is checked against.

    python3 perfbench/record_reference.py

Runs the full sweep, every torus shape (jobs=1) and ``classify`` on each
untransformed corpus fixture, and writes ``reference.json``: per lattice
or shape the number of colorings and a digest of them in the order
returned, and per fixture its canonical string and maximal-period index.
Re-record only when a change is meant to alter the program's output.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

import run


def _enumerated(workload: str, job: dict) -> dict:
    result = run.run_worker(workload, job)
    if result is None or any(c["error"] for c in result["calls"]):
        sys.exit(f"{workload}: the program failed; nothing recorded")
    return {c["key"]: [c["count"], c["digest"]] for c in result["calls"]}


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    from pcg import fixtures

    sweep = _enumerated("sweep", {"lattices": run.sweep_lattices(run.SWEEP_MAX_INDEX["full"])})
    shapes = run.TORUS_SHAPES["full"] + run.TORUS_SHAPES["tiny"]
    torus = _enumerated("torus", {"shapes": shapes, "jobs": 1})
    run.OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.OUT) as tmp:
        files = {}
        for fid in fixtures.fixture_ids():
            files[fid] = str(Path(tmp) / f"{fid}.pcg")
            Path(files[fid]).write_text(fixtures.info(fid).text, encoding="utf-8")
        result = run.run_worker("classify", {"files": list(files.values())})
    if result is None:
        sys.exit("classify: the program failed; nothing recorded")
    by_file = {c["key"]: json.loads(c["stdout"]) for c in result["calls"]}
    corpus = {}
    for fid, path in files.items():
        (ax, ay), (bx, by) = by_file[path]["maximal_periods"]
        corpus[fid] = {
            "canonical": by_file[path]["canonical"],
            "maximal_index": abs(ax * by - ay * bx),
        }
    reference = {"sweep": sweep, "torus": torus, "fixtures": corpus}
    with open(run.REFERENCE, "w", encoding="utf-8") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")
    total = sum(count for count, _ in sweep.values())
    print(f"recorded {len(sweep)} lattices ({total} colorings), "
          f"{len(torus)} shapes, {len(corpus)} fixtures")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Run one unit of a workload in a fresh interpreter.

Reads a JSON job on stdin and prints one JSON result on stdout.  Only
the loop over the unit's calls is timed; digests of the outputs are
taken afterwards.  A fresh interpreter per unit keeps every run
independent of whatever the program caches between calls.

Job keys: ``src`` (the directory holding the ``pcg`` package),
``workload``, ``trace``, ``spans_path``, and the unit's inputs:
``lattices`` as ``[w, s, h]`` (sweep), ``shapes`` as ``[w, h, colors]``
plus ``jobs`` (torus), or ``files`` (classify).
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import resource
import sys
import time


def digest(colorings) -> str:
    """Hash of the colorings in the order returned, from their public fields."""
    h = hashlib.sha256()
    for F in colorings:
        lat = F.lattice
        rows = "/".join(" ".join(F.tokens[c - 1] for c in row) for row in F.rows)
        h.update(f"{lat.w},{lat.s},{lat.h}:{rows}\n".encode())
    return h.hexdigest()[:16]


def _enumerate_unit(specs, jobs: int) -> tuple[float, list[dict]]:
    from pcg import search

    results = []
    start = time.perf_counter()
    for key, spec in specs:
        t0 = time.perf_counter()
        try:
            out, error = search.enumerate_colorings(spec, jobs=jobs), None
        except Exception as e:  # counted as a failed call, never fatal
            out, error = (), repr(e)
        results.append((key, time.perf_counter() - t0, out, error))
    wall = time.perf_counter() - start
    calls = [
        {"key": key, "ms": dt * 1e3, "count": len(out), "digest": digest(out), "error": err}
        for key, dt, out, err in results
    ]
    return wall, calls


def _sweep(job) -> tuple[float, list[dict]]:
    from pcg.coloring import Lattice
    from pcg.search import SearchSpec

    specs = [
        (f"{w},{s},{h}", SearchSpec(Lattice(w, s, h), min(5, w * h), surjective=False))
        for w, s, h in job["lattices"]
    ]
    return _enumerate_unit(specs, jobs=1)


def _torus(job) -> tuple[float, list[dict]]:
    from pcg.coloring import Lattice
    from pcg.search import SearchSpec

    specs = [
        (f"{w}x{h}/{c}", SearchSpec(Lattice(w, 0, h), c)) for w, h, c in job["shapes"]
    ]
    return _enumerate_unit(specs, jobs=job["jobs"])


def _classify(job) -> tuple[float, list[dict]]:
    import pcg.cli

    calls = []
    start = time.perf_counter()
    for path in job["files"]:
        out, err = io.StringIO(), io.StringIO()
        code, error = None, None
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = pcg.cli.main(["classify", path, "--json"])
        except Exception as e:  # counted as a failed call, never fatal
            error = repr(e)
        dt = time.perf_counter() - t0
        calls.append(
            {"key": path, "ms": dt * 1e3, "code": code, "stdout": out.getvalue(),
             "stderr": err.getvalue(), "error": error}
        )
    return time.perf_counter() - start, calls


UNITS = {"sweep": _sweep, "torus": _torus, "classify": _classify}


def main() -> int:
    job = json.load(sys.stdin)
    src = os.path.realpath(job["src"])
    sys.path.insert(0, src)
    import pcg.cli  # loads every pcg module, so tracing can wrap them all

    if not os.path.realpath(pcg.cli.__file__).startswith(src + os.sep):
        print(f"pcg was imported from {pcg.cli.__file__}, not {src}", file=sys.stderr)
        return 3
    recorder = None
    if job["trace"]:
        from spans import Recorder

        recorder = Recorder()
        recorder.install()
    wall, calls = UNITS[job["workload"]](job)
    result = {
        "wall_s": wall,
        "calls": calls,
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "layers": None,
    }
    if recorder is not None:
        result["layers"] = recorder.summary()
        recorder.dump(job["spans_path"])
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

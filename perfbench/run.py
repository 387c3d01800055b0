"""The pcg benchmark: one workload per run, outputs checked, metrics as JSON.

    python3 perfbench/run.py --workload sweep|torus|classify \\
        --seed N --seconds S --trace 0|1

Each unit of work runs in a fresh interpreter (``worker.py``), so no
unit sees what an earlier one left in the program's caches.  Units run
back to back until the next one would end after ``--seconds``.  With
``--trace 0`` the last line of stdout carries the end-to-end metrics;
with ``--trace 1`` a separate traced run gives the per-layer metrics
(see README.md for which end-to-end metric each one should move).
Inputs come from ``--seed`` only; every output is checked against
``reference.json``, recorded by ``record_reference.py``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import random
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
REFERENCE = BENCH / "reference.json"
WORKER_TIMEOUT_S = 170
NPROC = len(os.sched_getaffinity(0))

# Sweep: the small_sweep pool of the test suite -- every lattice of
# index <= 16 with up to 5 colors, surjective=False, jobs=1.
SWEEP_MAX_INDEX = {"full": 16, "tiny": 6}
# Torus: each shape in both orientations, plus a square control.
TORUS_SHAPES = {
    "full": [(8, 4, 4), (4, 8, 4), (6, 4, 5), (4, 6, 5), (6, 6, 4)],
    "tiny": [(4, 2, 3), (2, 4, 3), (3, 3, 3)],
}
# Classify: every corpus fixture at each scale, plus one random
# non-perfect torus of each side.
CLASSIFY_SCALES = {"full": (1, 2, 3, 4), "tiny": (1, 2)}
CLASSIFY_FIXTURES = {"full": None, "tiny": 3}
CLASSIFY_SIDES = {"full": range(16, 25), "tiny": range(16, 17)}
CLASSIFY_MIN_CALLS = 200
# Fresh interpreters timed for setup_s in each run.
SETUP_SPAWNS = 24

# The eight point symmetries of the grid, as integer matrices.
D4 = (
    ((1, 0), (0, 1)), ((0, -1), (1, 0)), ((-1, 0), (0, -1)), ((0, 1), (-1, 0)),
    ((1, 0), (0, -1)), ((0, 1), (1, 0)), ((-1, 0), (0, 1)), ((0, -1), (-1, 0)),
)


# What classify must report for a random torus.
RANDOM = {"perfect": False, "violation": True}


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


# -- PCG text, read and written without the program --------------------


def _ext_gcd(a: int, b: int) -> tuple[int, int, int]:
    x0, x1, y0, y1 = 1, 0, 0, 1
    while b:
        q = a // b
        a, b = b, a - q * b
        x0, x1 = x1, x0 - q * x1
        y0, y1 = y1, y0 - q * y1
    return (a, x0, y0) if a >= 0 else (-a, -x0, -y0)


def hnf(v1, v2) -> tuple[int, int, int]:
    """(w, s, h) with the lattice spanned by v1, v2 = <(w,0), (s,h)>."""
    h, u, v = _ext_gcd(v1[1], v2[1])
    w = abs(v1[0] * v2[1] - v2[0] * v1[1]) // h
    return w, (u * v1[0] + v * v2[0]) % w, h


def read_pcg(text: str):
    lines = [ln for ln in text.splitlines()[1:] if ln.strip() and not ln.startswith("#")]
    nums = [int(t) for t in lines[0].replace("(", " ").replace(")", " ").replace(",", " ").split()[1:]]
    lat = hnf(nums[0:2], nums[2:4])
    return lat, [ln.split() for ln in lines[1:]]


def write_pcg(lat, rows) -> str:
    w, s, h = lat
    body = "".join(" ".join(row) + "\n" for row in rows)
    return f"# pcg v1\nperiods ({w},0) ({s},{h})\n{body}"


def color_at(lat, rows, x: int, y: int) -> str:
    w, s, h = lat
    k = y // h
    return rows[y - k * h][(x - k * s) % w]


def is_perfect(lat, rows) -> bool:
    """Independent neighbour-count check: one profile per color."""
    w, s, h = lat
    seen = {}
    for y in range(h):
        for x in range(w):
            nb = sorted(color_at(lat, rows, x + dx, y + dy)
                        for dx, dy in ((1, 0), (-1, 0), (0, 1), (0, -1)))
            if seen.setdefault(rows[y][x], nb) != nb:
                return False
    return True


def moved(lat, rows, g, t, k):
    """The coloring v -> F(g^-1 (v - t)) written on k times its lattice."""
    w, s, h = lat
    b1 = (g[0][0] * w, g[1][0] * w)
    b2 = (g[0][0] * s + g[0][1] * h, g[1][0] * s + g[1][1] * h)
    w2, s2, h2 = hnf(b1, b2)
    big = (k * w2, k * s2, k * h2)
    out = []
    for y in range(big[2]):
        row = []
        for x in range(big[0]):
            dx, dy = x - t[0], y - t[1]
            # g is orthogonal, so its inverse is its transpose
            row.append(color_at(lat, rows, g[0][0] * dx + g[1][0] * dy,
                                g[0][1] * dx + g[1][1] * dy))
        out.append(row)
    return big, out


# -- inputs -------------------------------------------------------------


def sweep_lattices(max_index: int) -> list[tuple[int, int, int]]:
    return [(w, s, h) for w in range(1, max_index + 1)
            for h in range(1, max_index // w + 1) for s in range(w)]


def _rng(workload: str, seed: int, unit: int) -> random.Random:
    return random.Random(f"pcg-bench:{workload}:{seed}:{unit}")


class Workload:
    """Inputs and expected outputs of one unit of work, from the seed."""

    def __init__(self, name: str, seed: int, size: str, reference: dict, workdir: Path):
        self.name, self.seed, self.size = name, seed, size
        self.reference, self.workdir = reference, workdir
        self.expect: dict[str, dict] = {}
        self._fixture_want: dict[str, dict] = {}

    def job(self, unit: int, jobs: int = 1) -> dict:
        rng = _rng(self.name, self.seed, unit)
        if self.name == "sweep":
            lats = sweep_lattices(SWEEP_MAX_INDEX[self.size])
            rng.shuffle(lats)
            return {"lattices": lats}
        if self.name == "torus":
            shapes = list(TORUS_SHAPES[self.size])
            rng.shuffle(shapes)
            return {"shapes": shapes, "jobs": jobs}
        return {"files": self._classify_files(unit, rng)}

    def _classify_files(self, unit: int, rng: random.Random) -> list[str]:
        from pcg import fixtures

        ids = list(fixtures.fixture_ids())[: CLASSIFY_FIXTURES[self.size]]
        items = [("fixture", fid, k) for fid in ids for k in CLASSIFY_SCALES[self.size]]
        items += [("random", None, side) for side in CLASSIFY_SIDES[self.size]]
        rng.shuffle(items)
        udir = self.workdir / f"{self.name}-u{unit}"
        udir.mkdir(parents=True, exist_ok=True)
        files = []
        for j, (kind, fid, k) in enumerate(items):
            if kind == "fixture":
                lat, rows = read_pcg(fixtures.info(fid).text)
                g = rng.choice(D4)
                lat, rows = moved(lat, rows, g, (rng.randrange(64), rng.randrange(64)), k)
                if fid not in self._fixture_want:
                    self._fixture_want[fid] = fixture_expectation(fid, self.reference)
                expect = self._fixture_want[fid]
            else:
                lat, rows = random_torus(rng, k)
                expect = RANDOM
            path = str(udir / f"{j:03d}.pcg")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(write_pcg(lat, rows))
            self.expect[path] = expect
            files.append(path)
        return files


def random_torus(rng: random.Random, side: int):
    """A random coloring of the side x side torus that is not perfect."""
    lat = (side, 0, side)
    while True:
        n = rng.randint(3, 5)
        rows = [[str(rng.randint(1, n)) for _ in range(side)] for _ in range(side)]
        if not is_perfect(lat, rows):
            return lat, rows


# -- checks -------------------------------------------------------------


def fixture_expectation(fid: str, reference: dict) -> dict:
    """What classify must report for any grid-symmetric image of a fixture."""
    from pcg import fixtures

    rec, toks = fixtures.info(fid), fixtures.get(fid).tokens
    ref = reference["fixtures"][fid]
    return {
        "perfect": True,
        "quotient": [list(r) for r in rec.quotient],
        "covering": rec.covering,
        "orbit": rec.orbit,
        "twins": {frozenset((toks[a - 1], toks[b - 1])) for a, b in rec.twins},
        "canonical": ref["canonical"],
        "maximal_index": ref["maximal_index"],
    }


def check_classify(call: dict, want: dict) -> str | None:
    if call["error"] or call["code"] != 0:
        return f"exit {call['code']} {call['error'] or call['stderr'].strip()}"
    try:
        got = json.loads(call["stdout"])
        if want is RANDOM:
            seen = {"perfect": got["perfect"], "violation": got["violation"] is not None}
        else:
            (ax, ay), (bx, by) = got["maximal_periods"]
            seen = {
                "perfect": got["perfect"],
                "quotient": got["quotient"],
                "covering": got["covering"],
                "orbit": got["orbit"],
                "twins": {frozenset(p) for p in got["twins"]},
                "canonical": got["canonical"],
                "maximal_index": abs(ax * by - ay * bx),
            }
    except (ValueError, KeyError, TypeError) as e:
        return f"malformed output: {e!r}"
    bad = [key for key in want if seen[key] != want[key]]
    return f"wrong {', '.join(bad)}" if bad else None


def check_unit(wl: Workload, job: dict, result: dict | None) -> tuple[list[str], dict]:
    """The unit's operations, and a failure message for each wrong one."""
    if wl.name == "classify":
        keys = job["files"]
    elif wl.name == "sweep":
        keys = [f"{w},{s},{h}" for w, s, h in job["lattices"]]
    else:
        keys = [f"{w}x{h}/{c}" for w, h, c in job["shapes"]]
    if result is None:
        return keys, {key: "unit produced no result" for key in keys}
    calls = {c["key"]: c for c in result["calls"]}
    failures = {}
    for key in keys:
        call = calls.get(key)
        if call is None:
            failures[key] = "missing"
        elif wl.name == "classify":
            msg = check_classify(call, wl.expect[key])
            if msg:
                failures[key] = msg
        elif call["error"]:
            failures[key] = call["error"]
        elif [call["count"], call["digest"]] != wl.reference[wl.name].get(key):
            failures[key] = (f"{call['count']} colorings, digest {call['digest']}, "
                             f"expected {wl.reference[wl.name].get(key)}")
    if wl.name == "torus":
        for w, h, c in job["shapes"]:
            wide, narrow = calls.get(f"{w}x{h}/{c}"), calls.get(f"{h}x{w}/{c}")
            if w > h and wide and narrow and wide["digest"] != narrow["digest"]:
                failures.setdefault(f"{w}x{h}/{c}", "differs from its transpose")
    return keys, failures


# -- running units ------------------------------------------------------


def _worker_env() -> dict:
    env = dict(os.environ)
    env.pop("PYTHONPATH", None)
    env["PYTHONHASHSEED"] = "0"
    return env


def run_worker(workload: str, job: dict, trace: bool = False, spans_path: str = "") -> dict | None:
    """Run one unit in a fresh interpreter; None if it produced no result."""
    job = dict(job, src=str(SRC), workload=workload, trace=trace, spans_path=spans_path)
    # A process group of its own lets a timeout or an interrupt stop the worker
    # together with any search processes it started.
    proc = subprocess.Popen(
        [sys.executable, str(BENCH / "worker.py")], stdin=subprocess.PIPE,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, cwd=ROOT,
        env=_worker_env(), start_new_session=True,
    )
    try:
        stdout, stderr = proc.communicate(json.dumps(job), timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"{workload}: worker timed out", file=sys.stderr)
        return None
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
    if proc.returncode != 0:
        print(f"{workload}: worker exit {proc.returncode}\n{stderr}", file=sys.stderr)
        return None
    return json.loads(stdout.splitlines()[-1])


def measure_setup(spawns: int) -> list[float]:
    """Wall times for fresh interpreters to import pcg.cli."""
    cmd = [sys.executable, "-c", f"import sys; sys.path.insert(0, {str(SRC)!r}); import pcg.cli"]
    times = []
    for _ in range(spawns):
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, cwd=ROOT, env=_worker_env(), capture_output=True, text=True)
        if proc.returncode != 0:
            raise BenchError(f"cannot import pcg.cli from {SRC}:\n{proc.stderr}")
        times.append(time.perf_counter() - t0)
    return times


class Tally:
    """Operations attempted and failed over every unit of a run."""

    def __init__(self) -> None:
        self.attempted, self.failed, self.messages = 0, 0, []

    def add(self, wl: Workload, job: dict, result: dict | None,
            must_match: dict | None = None) -> dict | None:
        """Check one unit's outputs (and that they equal `must_match`'s)."""
        keys, failures = check_unit(wl, job, result)
        if result is not None and must_match is not None:
            other = {c["key"]: (c["count"], c["digest"]) for c in must_match["calls"]}
            for c in result["calls"]:
                if other.get(c["key"]) != (c["count"], c["digest"]):
                    failures.setdefault(c["key"], "differs from the jobs=nproc run")
        self.attempted += len(keys)
        self.failed += len(failures)
        self.messages += [f"{key}: {msg}" for key, msg in failures.items()]
        return result


def _median_of(results: list[dict], key: str) -> float:
    return statistics.median(r[key] for r in results)


def _beta_cf(a: float, b: float, x: float) -> float:
    """Continued fraction of the incomplete beta function (modified Lentz)."""

    def nonzero(v: float) -> float:
        return v if abs(v) > 1e-300 else 1e-300

    c, d = 1.0, 1 / nonzero(1 - (a + b) * x / (a + 1))
    h = d
    for m in range(1, 500):
        even = m * (b - m) * x / ((a + 2 * m - 1) * (a + 2 * m))
        odd = -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 2 * m + 1))
        for num in (even, odd):
            d = 1 / nonzero(1 + num * d)
            c = nonzero(1 + num / c)
            h *= d * c
        if abs(d * c - 1) < 1e-14:
            break
    return h


def beta_cdf(a: float, b: float, x: float) -> float:
    """The regularized incomplete beta function I_x(a, b)."""
    if x <= 0 or x >= 1:
        return 0.0 if x <= 0 else 1.0
    front = math.exp(math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
                     + a * math.log(x) + b * math.log1p(-x))
    if x < (a + 1) / (a + b + 2):
        return front * _beta_cf(a, b, x) / a
    return 1 - front * _beta_cf(b, a, 1 - x) / b


def quantile(values: list[float], p: float) -> float:
    """Harrell-Davis estimate of the p-quantile.

    A weighted mean of every order statistic, with weights from a beta
    distribution centred on rank p*n.  Unlike interpolating between the
    two values nearest that rank, it does not jump when the calls near
    the rank change places, so a tail quantile over a few hundred calls
    repeats far better from run to run.
    """
    xs = sorted(values)
    n = len(xs)
    a, b = p * (n + 1), (1 - p) * (n + 1)
    cdf = [beta_cdf(a, b, i / n) for i in range(n + 1)]
    return sum((cdf[i + 1] - cdf[i]) * x for i, x in enumerate(xs))


def timed_run(wl: Workload, seconds: float, tally: Tally) -> tuple[dict, dict]:
    """Units back to back for about `seconds`; the end-to-end metrics."""
    measure_setup(1)  # warms the bytecode cache
    # Half the set-up samples before the units and half after, so that
    # their median spans the run's host speed as wall_s does.
    setup = measure_setup(SETUP_SPAWNS // 2)
    min_calls = CLASSIFY_MIN_CALLS if wl.name == "classify" and wl.size == "full" else 0
    results, costs = [], []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        job = wl.job(len(costs), jobs=NPROC)
        result = tally.add(wl, job, run_worker(wl.name, job))
        costs.append(time.perf_counter() - t0)
        if result is not None:
            results.append(result)
        calls = sum(len(r["calls"]) for r in results)
        elapsed = time.perf_counter() - start
        if calls >= min_calls and elapsed + statistics.median(costs) > seconds:
            break
    setup += measure_setup(SETUP_SPAWNS - len(setup))
    if not results:
        raise BenchError(f"{wl.name}: no unit produced a result")
    # One time per input: torus units repeat their shapes, so a shape's
    # time is its median over the run's units; sweep and classify
    # inputs occur once per run.
    by_key: dict[str, list[float]] = {}
    for r in results:
        for c in r["calls"]:
            by_key.setdefault(c["key"], []).append(c["ms"])
    ms = [statistics.median(times) for times in by_key.values()]
    return {
        "wall_s": (_median_of(results, "wall_s"), "s"),
        "call_p50_ms": (quantile(ms, 0.5), "ms"),
        "call_p95_ms": (quantile(ms, 0.95), "ms"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (_median_of(results, "rss_mb"), "MB"),
    }, {"units": len(results), "calls": sum(len(r["calls"]) for r in results), "inputs": len(ms)}


def traced_run(wl: Workload, tally: Tally) -> tuple[dict, dict]:
    """Each unit untraced, then traced, on the same inputs.

    Torus units run with jobs=1 here, because spans recorded inside the
    search's worker processes are lost; an extra untraced jobs=nproc
    unit gives the base of ``search.jobs_speedup`` and must produce the
    same outputs.
    """
    (OUT / "spans").mkdir(parents=True, exist_ok=True)
    units = 3 if wl.name == "classify" and wl.size == "full" else 1
    jobs = 1 if wl.name == "torus" else NPROC
    plain, traced, base = [], [], []
    for unit in range(units):
        if wl.name == "torus":
            job = wl.job(unit, jobs=NPROC)
            base.append(tally.add(wl, job, run_worker(wl.name, job)))
        job = wl.job(unit, jobs=jobs)
        spans = OUT / "spans" / f"{wl.name}-seed{wl.seed}-u{unit}.json"
        plain.append(tally.add(wl, job, run_worker(wl.name, job)))
        traced.append(tally.add(wl, job, run_worker(wl.name, job, True, str(spans)),
                                must_match=base[-1] if base else None))
    if None in plain + traced + base:
        raise BenchError(f"{wl.name}: a unit of the traced run produced no result")
    layers = [r["layers"] for r in traced]
    metrics = {}
    for name in layers[0]:
        if name != "canonical_in_enumerate":
            metrics[f"{name}.calls"] = (sum(x[name]["calls"] for x in layers), "count")
            metrics[f"{name}.self_s"] = (sum(x[name]["self_s"] for x in layers), "s")
    outputs = sum(c.get("count", 0) for r in traced for c in r["calls"])
    in_enumerate = sum(x["canonical_in_enumerate"] for x in layers)
    metrics["search.canonical_per_output"] = (in_enumerate / outputs if outputs else 0.0, "ratio")
    speedup = _median_of(plain, "wall_s") / _median_of(base, "wall_s") if base else 0.0
    metrics["search.jobs_speedup"] = (speedup, "x")
    metrics["trace.overhead_s"] = (_median_of(traced, "wall_s") - _median_of(plain, "wall_s"), "s")
    metrics["src.lines"] = (src_lines(), "count")
    info = {"units": units}
    if base:
        info["jobs_speedup"] = f"jobs=1 wall / jobs={NPROC} wall, traced units at jobs=1"
    return metrics, info


def src_lines() -> int:
    return sum(len(p.read_text(encoding="utf-8").splitlines())
               for p in sorted((SRC / "pcg").glob("*.py")))


def context() -> dict:
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {"python": platform.python_version(), "nproc": NPROC, "cpu": cpu}


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=["sweep", "torus", "classify"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--size", choices=["full", "tiny"], default="full",
                    help="tiny: a few-second run for the benchmark's own tests")
    ap.add_argument("--reference", default=str(REFERENCE),
                    help="expected outputs (tests pass a corrupted copy)")
    args = ap.parse_args(argv)
    # SIGTERM unwinds like an exception, so the running worker is stopped
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    try:
        if not (SRC / "pcg" / "__init__.py").is_file():
            raise BenchError(f"no pcg package under {SRC}")
        sys.path.insert(0, str(SRC))
        with open(args.reference, encoding="utf-8") as fh:
            reference = json.load(fh)
        OUT.mkdir(exist_ok=True)
        workdir = Path(tempfile.mkdtemp(prefix="run-", dir=OUT))
        try:
            wl = Workload(args.workload, args.seed, args.size, reference, workdir)
            tally = Tally()
            if args.trace:
                metrics, info = traced_run(wl, tally)
            else:
                metrics, info = timed_run(wl, args.seconds, tally)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
    except BenchError as e:
        print(f"benchmark cannot run: {e}", file=sys.stderr)
        return 2
    for msg in tally.messages[:20]:
        print(f"FAILED {msg}", file=sys.stderr)
    failed = tally.failed
    print(json.dumps({"context": dict(context(), workload=wl.name, seed=wl.seed, **info,
                                      error_rate=failed / max(tally.attempted, 1))}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": tally.attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

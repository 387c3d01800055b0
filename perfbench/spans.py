"""Layer spans timed from outside the program.

`install` replaces every attribute of a loaded ``pcg`` module that *is*
one of the measured functions with a timing wrapper, so the function is
caught wherever it was imported.  Nothing under ``src/`` changes.  Spans
stay in memory as ``[name, parent, start, end]`` lists; `summary`
reduces them to calls and self time per layer, where self time is a
span's duration minus the time covered by its direct child spans.
"""

from __future__ import annotations

import functools
import json
import sys
import time
import types

# Metric prefix -> function name.  The prefix names the module the
# function lives in today; the lookup falls back to any pcg module, so
# moving a function does not break the benchmark or rename its metric.
LAYERS = {
    "search.enumerate_colorings": "enumerate_colorings",
    "search.classify": "classify",
    "coloring.parse": "parse",
    "coloring.canonical": "canonical",
    "coloring.maximal_periods": "maximal_periods",
    "perfect.check": "check",
    "orbits.stabilizer": "stabilizer",
    "orbits.orbits": "orbits",
    "diagonals.find_special_diagonals": "find_special_diagonals",
    "twins.twin_pairs": "twin_pairs",
    "twins.covering_target": "covering_target",
    "cli.main": "main",
}


def _pcg_modules() -> list[types.ModuleType]:
    return [
        m
        for name, m in sorted(sys.modules.items())
        if (name == "pcg" or name.startswith("pcg.")) and m is not None
    ]


def _find(layer: str, fn_name: str):
    """The function object behind a layer name, or None if it is gone."""
    home = sys.modules.get("pcg." + layer.split(".")[0])
    candidates = [home] + _pcg_modules() if home else _pcg_modules()
    for mod in candidates:
        obj = vars(mod).get(fn_name)
        if (
            callable(obj)
            and not isinstance(obj, (type, types.ModuleType))
            and getattr(obj, "__module__", "").startswith("pcg")
        ):
            return obj
    return None


class Recorder:
    """Spans of one process, kept in memory until `dump`."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []

    def _wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, stack[-1] if stack else -1, clock(), 0.0]
            stack.append(len(spans))
            spans.append(span)
            try:
                return fn(*args, **kwargs)
            finally:
                span[3] = clock()
                stack.pop()

        return traced

    def install(self) -> list[str]:
        """Wrap every measured function; returns the layers found."""
        found = []
        for layer, fn_name in LAYERS.items():
            orig = _find(layer, fn_name)
            if orig is None:
                continue
            wrapper = self._wrap(layer, orig)
            for mod in _pcg_modules():
                for attr, value in list(vars(mod).items()):
                    if value is orig:
                        setattr(mod, attr, wrapper)
            found.append(layer)
        return found

    def summary(self) -> dict:
        """Calls and self seconds per layer, plus nesting counts."""
        child_time = [0.0] * len(self.spans)
        for name, parent, start, end in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out = {layer: {"calls": 0, "self_s": 0.0} for layer in LAYERS}
        canonical_in_enumerate = 0
        for i, (name, parent, start, end) in enumerate(self.spans):
            out[name]["calls"] += 1
            out[name]["self_s"] += (end - start) - child_time[i]
            if name == "coloring.canonical" and self._under(i, "search.enumerate_colorings"):
                canonical_in_enumerate += 1
        out["canonical_in_enumerate"] = canonical_in_enumerate
        return out

    def _under(self, i: int, name: str) -> bool:
        parent = self.spans[i][1]
        while parent >= 0:
            if self.spans[parent][0] == name:
                return True
            parent = self.spans[parent][1]
        return False

    def dump(self, path: str) -> None:
        """Write the spans; `root` is the top-level call each belongs to."""
        roots = []
        for i, (name, parent, start, end) in enumerate(self.spans):
            roots.append(i if parent < 0 else roots[parent])
        keys = ("id", "root", "name", "parent", "start", "end")
        rows = [(i, roots[i], *s) for i, s in enumerate(self.spans)]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump([dict(zip(keys, r)) for r in rows], fh)

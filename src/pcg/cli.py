"""Command-line interface: one subcommand per analysis, PCG files in and out.

Exit codes follow a scripting convention: 0 means success (and, for
predicate subcommands, "true"), 1 means the property is false or a
violation was found, 2 means the input or invocation was malformed.
Diagnostics go to stderr; results go to stdout.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from functools import lru_cache
from typing import Optional

from .coloring import (
    Lattice,
    PcgParseError,
    PeriodicColoring,
    equivalent,
    parse,
    render,
)
from .diagonals import ShiftCompatibilityError, diagonal_classes, shift_residue_class
from .grid import Orientation
from .orbits import orbit_report
from .perfect import (
    DetailedBalanceError,
    NotPerfectError,
    Violation,
    check,
    describe,
    quotient,
    stationary,
)
from .report import classify
from .search import SearchSpec, enumerate_colorings
from .twins import TwinMergeError, merge, twin_pairs


class _Usage(Exception):
    """Bad input discovered after argparse: reported on stderr, exit 2."""


def _load(path: str) -> PeriodicColoring:
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as e:
        raise _Usage(f"cannot read {path}: {e.strerror}") from None
    except UnicodeDecodeError as e:
        raise _Usage(f"{path}: not UTF-8 text (byte {e.start})") from None
    try:
        return parse(text)
    except PcgParseError as e:
        raise _Usage(f"{path}: {e}") from None


def _save(path: str, text: str) -> None:
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as e:
        raise _Usage(f"cannot write {path}: {e.strerror}") from None


def _color_id(F: PeriodicColoring, token: str) -> int:
    if token not in F.tokens:
        raise _Usage(f"no color {token!r}; colors are {' '.join(F.tokens)}")
    return F.tokens.index(token) + 1


def _print_matrix(S) -> None:
    for row in S:
        print(" ".join(str(x) for x in row))


def _cmd_verify(args) -> int:
    F = _load(args.file)
    out = check(F)
    if isinstance(out, Violation):
        print(f"not perfect: {describe(F, out)}")
        return 1
    _print_matrix(out)
    return 0


def _cmd_quotient(args) -> int:
    F = _load(args.file)
    S = quotient(F)
    if args.json:
        print(json.dumps({"tokens": list(F.tokens), "matrix": [list(r) for r in S]}))
    else:
        _print_matrix(S)
    return 0


def _cmd_classify(args) -> int:
    rep = classify(_load(args.file))
    if args.json:
        print(json.dumps(rep.to_json_dict()))
        return 0
    print(f"perfect: {str(rep.perfect).lower()}")
    if not rep.perfect:
        print(f"violation: node {rep.violation.node}")
        return 0
    _print_matrix(rep.quotient)
    toks = rep.tokens
    pairs = " ".join(f"{toks[a - 1]}+{toks[b - 1]}" for a, b in rep.twin_pairs)
    print(f"bipartite: {str(rep.bipartite).lower()}")
    print(f"twins: {pairs if pairs else 'none'}")
    print(f"covering: {str(rep.covering).lower()}")
    print(f"orbit: {str(rep.orbit).lower()}")
    b1, b2 = rep.maximal.basis
    print(f"maximal periods: ({b1[0]},{b1[1]}) ({b2[0]},{b2[1]})")
    print(f"special diagonals: {len(rep.special_diagonals)}")
    return 0


def _cmd_twins(args) -> int:
    F = _load(args.file)
    pairs = twin_pairs(quotient(F))
    for a, b in pairs:
        print(F.tokens[a - 1], F.tokens[b - 1])
    return 0 if pairs else 1


def _cmd_merge(args) -> int:
    F = _load(args.file)
    a, b = _color_id(F, args.a), _color_id(F, args.b)
    if a == b:
        raise _Usage(f"A and B must be two different colors, got {args.a!r} twice")
    _save(args.output, render(merge(F, a, b)))
    return 0


def _cmd_equiv(args) -> int:
    if equivalent(_load(args.file1), _load(args.file2)):
        print("equivalent")
        return 0
    print("not equivalent")
    return 1


def _cmd_orbit(args) -> int:
    rep = orbit_report(_load(args.file))
    if args.json:
        print(json.dumps(rep.to_json_dict()))
    elif rep.is_orbit:
        print("orbit")
    else:
        a, b = rep.counterexample_pair
        print(f"not orbit: no symmetry joins {a} and {b}")
    return 0 if rep.is_orbit else 1


def _cmd_diagonals(args) -> int:
    F = _load(args.file)
    classes = diagonal_classes(F)
    special = [c for c in classes if c.kind != "other"]
    if args.json:
        print(json.dumps([c.to_json_dict(F.tokens) for c in classes]))
        return 0 if special else 1
    for c in classes:
        seq = " ".join(F.tokens[x - 1] for x in c.colors)
        print(f"{c.orientation.value} {c.residue} mod {c.modulus}: {c.kind} [{seq}]")
    return 0 if special else 1


def _cmd_shift(args) -> int:
    F = _load(args.file)
    o = Orientation(args.orientation)
    G = shift_residue_class(F, o, args.residue, args.modulus, args.offset)
    _save(args.output, render(G))
    return 0


def _cmd_enumerate(args) -> int:
    S = quotient(_load(args.quotient)) if args.quotient else None
    try:
        lat = Lattice.from_vectors((args.width, 0), (args.shear, args.height))
        spec = SearchSpec(lat, args.colors, quotient=S, surjective=not args.lax)
    except ValueError as e:
        raise _Usage(str(e)) from None
    found = enumerate_colorings(spec, jobs=args.jobs)
    if args.report:
        for i, F in enumerate(found, start=1):
            rep = classify(F)
            print(
                f"{i} colors={F.n} covering={str(rep.covering).lower()} "
                f"orbit={str(rep.orbit).lower()} twins={len(rep.twin_pairs)}"
            )
        print(f"total {len(found)}")
    else:
        print(f"total {len(found)}")
        for F in found:
            print()
            sys.stdout.write(render(F))
    return 0


def _cmd_stationary(args) -> int:
    F = _load(args.file)
    P = stationary(quotient(F))
    if args.json:
        print(
            json.dumps(
                {"tokens": list(F.tokens), "distribution": [str(p) for p in P]}
            )
        )
    else:
        for t, p in zip(F.tokens, P):
            print(t, p)
    return 0


def _cmd_audit(args) -> int:
    F = _load(args.file)
    rep = classify(F)
    if not rep.perfect:
        raise NotPerfectError(F, rep.violation)
    if args.json:
        toks = rep.tokens
        twins = [[toks[a - 1], toks[b - 1]] for a, b in rep.twin_pairs]
        doc = {"covering": rep.covering, "twins": twins, "orbit": rep.orbit}
        print(json.dumps({**doc, "dichotomy": rep.dichotomy}))
    else:
        print(f"covering: {str(rep.covering).lower()}")
        print(f"twins: {len(rep.twin_pairs)}")
        print(f"orbit: {str(rep.orbit).lower()}")
        print(f"dichotomy: {'holds' if rep.dichotomy else 'FAILS'}")
    return 0 if rep.dichotomy else 1


def _cmd_fixture(args) -> int:
    from . import fixtures  # corpus data, read by this command alone

    if args.which == "list":
        for fid in fixtures.fixture_ids():
            fx = fixtures.info(fid)
            F = fixtures.get(fid)
            lat = F.lattice
            print(f"{fid} colors={fx.colors} domain={lat.w}x{lat.h}")
        return 0
    try:
        F = fixtures.get(args.id)
    except KeyError:
        raise _Usage(
            f"unknown fixture {args.id!r}; see 'fixture list'"
        ) from None
    sys.stdout.write(render(F))
    return 0


def _positive(text: str) -> int:
    try:
        n = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if n < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {n}")
    return n


@lru_cache(maxsize=1)
def _build_parser() -> argparse.ArgumentParser:
    """The pcg argument parser, built once per process; parsing leaves it as is."""
    top = argparse.ArgumentParser(
        prog="pcg", description="Perfect colorings of the square grid."
    )
    sub = top.add_subparsers(dest="cmd", required=True)

    def cmd(name, fn, help, *positionals, json=False):
        p = sub.add_parser(name, help=help)
        p.set_defaults(fn=fn)
        for arg in positionals:
            p.add_argument(arg)
        if json:
            p.add_argument("--json", action="store_true")
        return p

    cmd("verify", _cmd_verify, "check perfectness; print quotient or violation", "file")
    cmd("quotient", _cmd_quotient, "print the quotient matrix", "file", json=True)
    cmd("classify", _cmd_classify, "full report for one coloring", "file", json=True)
    cmd("twins", _cmd_twins, "list twin color pairs; exit 1 if none", "file")

    p = cmd("merge", _cmd_merge, "merge two twin colors into one", "file")
    p.add_argument("a", metavar="A")
    p.add_argument("b", metavar="B")
    p.add_argument("-o", "--output", required=True)

    cmd("equiv", _cmd_equiv, "are two colorings equivalent?", "file1", "file2")
    cmd("orbit", _cmd_orbit, "is this an orbit coloring?", "file", json=True)
    cmd("diagonals", _cmd_diagonals, "diagonal classes; exit 1 if none special",
        "file", json=True)

    p = cmd("shift", _cmd_shift, "slide one residue class of diagonals", "file")
    p.add_argument(
        "--orientation", required=True, choices=[o.value for o in Orientation]
    )
    p.add_argument("--residue", type=int, required=True)
    p.add_argument("--modulus", type=_positive, required=True)
    p.add_argument("--offset", type=int, required=True)
    p.add_argument("-o", "--output", required=True)

    p = cmd("enumerate", _cmd_enumerate, "all perfect colorings of a torus")
    p.add_argument("--width", type=_positive, required=True)
    p.add_argument("--height", type=_positive, required=True)
    p.add_argument("--shear", type=int, default=0)
    p.add_argument("--colors", type=int, required=True)
    p.add_argument("--quotient", help="PCG file whose quotient constrains the search")
    p.add_argument("--report", action="store_true")
    p.add_argument("--lax", action="store_true", help="allow fewer than --colors")
    p.add_argument("--jobs", type=_positive, default=1)

    cmd("stationary", _cmd_stationary, "color distribution of the quotient",
        "file", json=True)
    cmd("audit", _cmd_audit, "covering dichotomy report", "file", json=True)

    p = cmd("fixture", _cmd_fixture, "bundled example colorings")
    fsub = p.add_subparsers(dest="which", required=True)
    fsub.add_parser("list")
    show = fsub.add_parser("show")
    show.add_argument("id")

    return top


def main(argv: Optional[list[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return 0 if e.code in (0, None) else 2
    try:
        return args.fn(args)
    except _Usage as e:
        print(e, file=sys.stderr)
        return 2
    except (
        NotPerfectError,
        TwinMergeError,
        DetailedBalanceError,
        ShiftCompatibilityError,
    ) as e:
        # a well-formed input that lacks the property the command needs
        print(e, file=sys.stderr)
        return 1


def entry() -> None:
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed stdout, as `| head` does. Python would flush
        # again at exit and fail, so send what is left to devnull.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 1
    sys.exit(code)

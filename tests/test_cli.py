"""End-to-end runs of every CLI subcommand through main(argv)."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from pcg import fixtures
from pcg.cli import _build_parser, main
from pcg.coloring import PeriodicColoring, parse, render
from pcg.perfect import Violation, check

from test_coloring import garbled_renderings


@pytest.fixture
def paths(tmp_path):
    """Write corpus fixtures to files on demand; returns a path factory."""

    def make(fid):
        p = tmp_path / f"{fid}.pcg"
        if not p.exists():
            p.write_text(render(fixtures.get(fid)))
        return str(p)

    make.dir = tmp_path
    return make


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_verify_prints_quotient(paths, capsys):
    code, out, err = run(capsys, "verify", paths("II-base"))
    assert code == 0
    assert out == "0 0 0 4\n0 0 0 4\n0 0 0 4\n2 1 1 0\n"


def test_verify_reports_violation(tmp_path, capsys):
    p = tmp_path / "bad.pcg"
    p.write_text("# pcg v1\nperiods (2,0) (0,2)\n1 1\n1 2\n")
    code, out, err = run(capsys, "verify", str(p))
    assert code == 1
    assert out.startswith("not perfect: node (1, 0) of color 1")


def test_verify_malformed_file_is_usage_error(tmp_path, capsys):
    p = tmp_path / "junk.pcg"
    p.write_text("hello\n")
    code, out, err = run(capsys, "verify", str(p))
    assert code == 2
    assert "line 1" in err and out == ""


def test_missing_file_is_usage_error(capsys):
    code, out, err = run(capsys, "verify", "/no/such/file.pcg")
    assert code == 2
    assert err


def test_no_arguments_is_usage_error(capsys):
    assert main([]) == 2
    capsys.readouterr()


def test_quotient_json(paths, capsys):
    code, out, err = run(capsys, "quotient", paths("h"), "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["tokens"] == ["1", "2", "3", "4", "5", "6", "7", "8"]
    assert doc["matrix"][0] == [0, 0, 0, 0, 1, 1, 1, 1]


def test_quotient_of_broken_coloring_fails(tmp_path, capsys):
    p = tmp_path / "bad.pcg"
    p.write_text("# pcg v1\nperiods (2,0) (0,2)\n1 1\n1 2\n")
    code, out, err = run(capsys, "quotient", str(p))
    assert code == 1
    assert "not a perfect coloring" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "FILE"],
        ["quotient", "FILE"],
        ["twins", "FILE"],
        ["stationary", "FILE"],
        ["audit", "FILE"],
        ["merge", "FILE", "u", "v", "-o", "OUT"],
        ["enumerate", "--width", "2", "--height", "2", "--colors", "2",
         "--quotient", "FILE"],
    ],
    ids=lambda argv: argv[0],
)
def test_violation_names_colors_by_token(tmp_path, capsys, argv):
    p = tmp_path / "bad.pcg"
    p.write_text("# pcg v1\nperiods (2,0) (0,2)\nu v\nv v\n")
    subst = {"FILE": str(p), "OUT": str(tmp_path / "out.pcg")}
    code, out, err = run(capsys, *(subst.get(a, a) for a in argv))
    assert code == 1
    line = "node (1, 1) of color v sees [v v v v]\n"
    if argv[0] == "verify":
        assert (out, err) == ("not perfect: " + line, "")
    else:
        assert (out, err) == ("", "not a perfect coloring: " + line)


def test_classify_text(paths, capsys):
    code, out, err = run(capsys, "classify", paths("h"))
    assert code == 0
    assert "perfect: true" in out
    assert "covering: true" in out
    assert "orbit: true" in out
    assert "maximal periods: (4,0) (2,2)" in out


def test_classify_text_on_broken_coloring(tmp_path, capsys):
    p = tmp_path / "bad.pcg"
    p.write_text("# pcg v1\nperiods (2,0) (0,2)\n1 1\n1 2\n")
    code, out, err = run(capsys, "classify", str(p))
    assert code == 0
    assert out == "perfect: false\nviolation: node (1, 0)\n"


def test_classify_json(paths, capsys):
    code, out, err = run(capsys, "classify", paths("8-150-1"), "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["perfect"] is True
    assert doc["orbit"] is False
    assert doc["covering"] is False
    assert doc["maximal_periods"] == [[4, 0], [0, 4]]


def test_twins_lists_pairs(paths, capsys):
    code, out, err = run(capsys, "twins", paths("II-base"))
    assert code == 0
    assert out.splitlines() == ["1 2", "1 3", "2 3"]


def test_twins_exit_one_when_none(paths, capsys):
    code, out, err = run(capsys, "twins", paths("L1-a"))
    assert code == 1
    assert out == ""


def test_merge_writes_merged_coloring(paths, capsys, tmp_path):
    out_path = tmp_path / "merged.pcg"
    code, out, err = run(
        capsys, "merge", paths("II-base"), "1", "2", "-o", str(out_path)
    )
    assert code == 0
    M = parse(out_path.read_text())
    assert check(M) == ((0, 0, 4), (0, 0, 4), (3, 1, 0))


def test_merge_non_twins_fails(paths, capsys, tmp_path):
    code, out, err = run(
        capsys, "merge", paths("II-base"), "1", "4", "-o", str(tmp_path / "x.pcg")
    )
    assert code == 1
    assert "not twins" in err


def test_merge_non_twins_names_colors_by_token(capsys, tmp_path):
    F = fixtures.get("II-base")
    p = tmp_path / "g.pcg"
    p.write_text(render(PeriodicColoring(F.lattice, F.rows, ("w", "x", "y", "z"))))
    code, out, err = run(
        capsys, "merge", str(p), "w", "z", "-o", str(tmp_path / "x.pcg")
    )
    assert code == 1
    assert err == "colors w and z are not twins: rows differ in column x\n"


def test_merge_unknown_token_is_usage_error(paths, capsys, tmp_path):
    code, out, err = run(
        capsys, "merge", paths("II-base"), "9", "1", "-o", str(tmp_path / "x.pcg")
    )
    assert code == 2
    assert "no color" in err


def test_equiv_same_file(paths, capsys):
    code, out, err = run(capsys, "equiv", paths("f"), paths("f"))
    assert code == 0
    assert out == "equivalent\n"


def test_equiv_different(paths, capsys):
    code, out, err = run(capsys, "equiv", paths("8-150-1"), paths("8-150-2"))
    assert code == 1
    assert out == "not equivalent\n"


def test_orbit_counterexample(paths, capsys):
    code, out, err = run(capsys, "orbit", paths("8-150-1"))
    assert code == 1
    assert out.startswith("not orbit: no symmetry joins")


def test_orbit_true(paths, capsys):
    code, out, err = run(capsys, "orbit", paths("8-150-2"))
    assert code == 0
    assert out == "orbit\n"


def test_orbit_json(paths, capsys):
    code, out, err = run(capsys, "orbit", paths("L1-a"), "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["orbit"] is True and doc["counterexample_pair"] is None


def test_diagonals_text_and_exit(paths, capsys):
    code, out, err = run(capsys, "diagonals", paths("h"))
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 8
    assert all("binary-alternating" in ln for ln in lines)
    code, out, err = run(capsys, "diagonals", paths("b"))
    assert code == 1


def test_diagonals_json_schema(paths, capsys):
    code, out, err = run(capsys, "diagonals", paths("II-base"), "--json")
    assert code == 0
    doc = json.loads(out)
    assert len(doc) == 8
    for entry in doc:
        assert set(entry) == {"orientation", "residue", "modulus", "kind", "colors"}
        assert entry["orientation"] in ("right", "left")
        assert entry["kind"] in ("one-color", "binary-alternating", "binary", "other")


def test_shift_roundtrip(paths, capsys, tmp_path):
    out_path = tmp_path / "shifted.pcg"
    code, out, err = run(
        capsys, "shift", paths("h"), "--orientation", "right",
        "--residue", "0", "--modulus", "4", "--offset", "1",
        "-o", str(out_path),
    )
    assert code == 0
    code, out, err = run(capsys, "verify", str(out_path))
    assert code == 0


def test_shift_incompatible_modulus(paths, capsys, tmp_path):
    code, out, err = run(
        capsys, "shift", paths("II-base"), "--orientation", "right",
        "--residue", "0", "--modulus", "8", "--offset", "1",
        "-o", str(tmp_path / "x.pcg"),
    )
    assert code == 1
    assert "cannot shift" in err


def test_enumerate_counts(capsys):
    code, out, err = run(
        capsys, "enumerate", "--width", "2", "--height", "2", "--colors", "2"
    )
    assert code == 0
    assert out.startswith("total 2\n")
    blocks = out.split("\n\n")
    assert len(blocks) == 3  # count line + 2 colorings
    for block in blocks[1:]:
        F = parse(block)
        assert not isinstance(check(F), Violation)


def test_enumerate_report(capsys):
    code, out, err = run(
        capsys, "enumerate", "--width", "2", "--height", "2", "--colors", "2",
        "--report",
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[-1] == "total 2"
    assert len(lines) == 3
    assert all("orbit=" in ln for ln in lines[:-1])


def test_enumerate_with_quotient_constraint(paths, capsys, tmp_path):
    chk = tmp_path / "chk.pcg"
    chk.write_text(render(fixtures.checkerboard()))
    code, out, err = run(
        capsys, "enumerate", "--width", "2", "--height", "2", "--colors", "2",
        "--quotient", str(chk),
    )
    assert code == 0
    assert out.startswith("total 1\n")


def test_enumerate_quotient_of_other_size_is_usage_error(capsys, tmp_path):
    # the checkerboard has 2 colors; a surjective 3-color search matches none
    chk = tmp_path / "chk.pcg"
    chk.write_text(render(fixtures.checkerboard()))
    code, out, err = run(
        capsys, "enumerate", "--width", "2", "--height", "2", "--colors", "3",
        "--quotient", str(chk),
    )
    assert code == 2 and out == ""
    assert "max_colors" in err


def test_enumerate_bad_lattice_is_usage_error(capsys):
    code, out, err = run(
        capsys, "enumerate", "--width", "0", "--height", "2", "--colors", "2"
    )
    assert code == 2


@pytest.mark.parametrize(
    "argv, message",
    [
        (["merge", "FILE", "1", "1", "-o", "OUT"], "different colors"),
        (
            ["shift", "FILE", "--orientation", "right", "--residue", "0",
             "--modulus", "0", "--offset", "1", "-o", "OUT"],
            "--modulus",
        ),
        (["enumerate", "--width", "2", "--height", "2", "--colors", "2",
          "--jobs", "0"], "--jobs"),
        (["enumerate", "--width", "2", "--height", "2", "--colors", "2",
          "--jobs", "-2"], "--jobs"),
        (["enumerate", "--width", "-2", "--height", "2", "--colors", "2"],
         "--width"),
        (["enumerate", "--width", "2", "--height", "-3", "--colors", "2"],
         "--height"),
        (["classify", "BINARY"], "not UTF-8"),
        # int() refuses more than 4,300 digits
        (["classify", "LONG_NUMBER"], "too many digits"),
        # a width of about 8,000 digits, which str() refuses to print
        (["classify", "WIDE"], "more cells than the text holds"),
        # periods are ASCII digits only, as render writes them
        (["classify", "NON_ASCII"], "expected 'periods (a,b) (c,d)'"),
        (["enumerate", "--width", "2", "--height", "2", "--colors", "2",
          "--jobs", "x"], "invalid int value: 'x'"),
        # colors 1 and 2 of II-base are twins, so only the write fails
        (["merge", "FILE", "1", "2", "-o", "NO_DIR"], "cannot write"),
    ],
)
def test_bad_arguments_are_usage_errors(paths, capsys, tmp_path, argv, message):
    out_path = tmp_path / "out.pcg"
    nines = b"9" * 4000
    files = {
        "BINARY": b"\xff\xfe",
        "LONG_NUMBER": b"# pcg v1\nperiods (1" + b"0" * 5000 + b",0) (0,1)\n1\n",
        "WIDE": b"# pcg v1\nperiods (" + nines + b",1) (0," + nines + b")\n1\n",
        "NON_ASCII": "# pcg v1\nperiods (\u0662,0) (0,\uff11)\na b\n".encode(),
    }
    subst = {
        "FILE": paths("II-base"),
        "OUT": str(out_path),
        "NO_DIR": str(tmp_path / "no such dir" / "out.pcg"),
    }
    for name, data in files.items():
        subst[name] = str(tmp_path / f"{name}.pcg")
        (tmp_path / f"{name}.pcg").write_bytes(data)
    code, out, err = run(capsys, *(subst.get(a, a) for a in argv))
    assert code == 2
    assert message in err and out == ""
    assert not out_path.exists()


FILE_COMMANDS = (
    "verify", "quotient", "classify", "twins", "orbit", "diagonals",
    "stationary", "audit", "equiv",
)


@given(
    cmd=st.sampled_from(FILE_COMMANDS),
    as_json=st.booleans(),
    text=st.one_of(st.text(), garbled_renderings()),
)
@example(cmd="verify", as_json=False, text="\ud800# pcg v1\nperiods (1,0) (0,1)\n1\n")
# a numeral token with more digits than int() converts
@example(cmd="verify", as_json=False, text=f"# pcg v1\nperiods (2,0) (0,1)\n{'1' * 5000} 2\n")
@settings(
    max_examples=200,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
def test_main_exits_cleanly_on_any_file(tmp_path, capsys, cmd, as_json, text):
    """Every subcommand that reads a file exits 0, 1 or 2 and raises
    nothing, whatever the file holds; `--json` where a subcommand has no
    such flag is a usage error. `enumerate` is left out: the torus it
    searches is named on the command line, so its run time is not
    bounded by the input text."""
    path = tmp_path / "fuzz.pcg"
    # a lone surrogate has no strict UTF-8 form; write its bytes anyway
    path.write_bytes(text.encode("utf-8", "surrogatepass"))
    argv = [cmd, str(path)] + [str(path)] * (cmd == "equiv") + ["--json"] * as_json
    assert main(argv) in (0, 1, 2)
    capsys.readouterr()


def test_main_runs_the_same_when_called_again(paths, capsys):
    # the parser is built once per process; later calls must not see
    # anything an earlier call, or its usage error, left behind
    calls = [
        ["classify", paths("h"), "--json"],
        ["enumerate", "--width", "2", "--height", "2", "--colors", "2",
         "--jobs", "0"],
        ["verify", paths("II-base")],
    ]
    alone = []
    for argv in calls:
        _build_parser.cache_clear()
        alone.append(run(capsys, *argv))
    assert [r[0] for r in alone] == [0, 2, 0]
    for _ in range(2):
        assert [run(capsys, *argv) for argv in calls] == alone
    assert _build_parser.cache_info().misses == 1


def test_stationary_text(paths, capsys):
    code, out, err = run(capsys, "stationary", paths("II-base"))
    assert code == 0
    assert out == "1 1/4\n2 1/8\n3 1/8\n4 1/2\n"


def test_stationary_json(paths, capsys):
    code, out, err = run(capsys, "stationary", paths("c"), "--json")
    assert code == 0
    doc = json.loads(out)
    assert len(doc["tokens"]) == len(doc["distribution"]) == 10
    assert all("/" in p or p == "0" or p.isdigit() for p in doc["distribution"])


def test_audit_holds(paths, capsys):
    code, out, err = run(capsys, "audit", paths("h"))
    assert code == 0
    assert "dichotomy: holds" in out


def test_audit_json(paths, capsys):
    """Twin colors are named by token, as in every JSON the CLI prints."""
    F = fixtures.get("3-17-2")
    G = PeriodicColoring(F.lattice, F.rows, ("red", "green", "blue"))
    words = paths.dir / "words.pcg"
    words.write_text(render(G))
    for path, pair in ((paths("3-17-2"), ["1", "2"]), (str(words), ["green", "red"])):
        code, out, err = run(capsys, "audit", path, "--json")
        assert code == 0
        doc = json.loads(out)
        assert doc == {
            "covering": False,
            "twins": [pair],
            "orbit": False,
            "dichotomy": True,
        }


def test_fixture_list(capsys):
    code, out, err = run(capsys, "fixture", "list")
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 20
    assert any(ln.startswith("II-base ") for ln in lines)


def test_fixture_show_roundtrip(capsys):
    code, out, err = run(capsys, "fixture", "show", "h")
    assert code == 0
    assert parse(out) == fixtures.get("h")


def test_fixture_show_unknown(capsys):
    code, out, err = run(capsys, "fixture", "show", "nope")
    assert code == 2
    assert "unknown fixture" in err


def test_output_is_deterministic(paths, capsys):
    a = run(capsys, "classify", paths("e"), "--json")
    b = run(capsys, "classify", paths("e"), "--json")
    assert a == b


# `python -m pcg` in a fresh interpreter, through entry() as the console
# script runs it

SRC = str(Path(__file__).resolve().parent.parent / "src")


def pcg(*argv, **kw):
    kw.setdefault("stdout", subprocess.PIPE)
    return subprocess.run(
        [sys.executable, "-m", "pcg", *argv],
        stderr=subprocess.PIPE,
        text=True,
        env=dict(os.environ, PYTHONPATH=SRC),
        timeout=120,
        **kw,
    )


def test_enumerate_bounds_the_torus():
    # the search recurses once per cell, so a larger torus is refused
    # before it can exhaust the stack
    proc = pcg("enumerate", "--width", "31", "--height", "32", "--colors", "1")
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr == "the search takes at most 900 cells, not 992\n"
    proc = pcg("enumerate", "--width", "30", "--height", "30", "--colors", "1")
    assert proc.returncode == 0 and proc.stderr == ""
    assert proc.stdout.startswith("total 1\n")


@pytest.mark.parametrize(
    "argv",
    [
        ["fixture", "list"],
        ["enumerate", "--width", "6", "--height", "6", "--colors", "4"],
    ],
    ids=lambda argv: argv[0],
)
def test_closed_stdout_prints_no_traceback(argv):
    read, write = os.pipe()
    os.close(read)  # the reader is gone before pcg writes, as in `| true`
    try:
        proc = pcg(*argv, stdout=write)
    finally:
        os.close(write)
    assert proc.stderr == ""

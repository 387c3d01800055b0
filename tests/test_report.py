"""The classification report computes a field only when it is read."""

import pytest

import pcg.orbits
import pcg.report
from pcg import fixtures
from pcg.coloring import render
from pcg.report import classify

from test_cli import run

# fields that neither `pcg audit` nor `pcg enumerate --report` reads
UNREAD = ("canonical", "maximal_periods", "find_special_diagonals", "is_bipartite")

BAD = "# pcg v1\nperiods (2,0) (0,2)\n1 1\n1 2\n"

ENUMERATE_4x4_3 = """\
1 colors=3 covering=false orbit=true twins=1
2 colors=3 covering=false orbit=true twins=1
3 colors=3 covering=false orbit=true twins=1
4 colors=3 covering=false orbit=true twins=1
5 colors=3 covering=false orbit=true twins=1
6 colors=3 covering=false orbit=true twins=1
7 colors=3 covering=false orbit=true twins=3
8 colors=3 covering=false orbit=false twins=3
9 colors=3 covering=false orbit=false twins=3
10 colors=3 covering=false orbit=false twins=3
11 colors=3 covering=false orbit=false twins=1
total 11
"""


def _forbid(monkeypatch, module, *names):
    def boom(*args, **kwargs):
        raise AssertionError("computed a field nobody read")

    for name in names:
        monkeypatch.setattr(module, name, boom)


@pytest.mark.parametrize("fid", fixtures.fixture_ids())
def test_audit_reads_only_its_fields(fid, tmp_path, capsys, monkeypatch):
    path = tmp_path / "f.pcg"
    path.write_text(render(fixtures.get(fid)))
    _forbid(monkeypatch, pcg.report, *UNREAD)
    fx = fixtures.info(fid)
    want = (
        f"covering: {str(fx.covering).lower()}\ntwins: {len(fx.twins)}\n"
        f"orbit: {str(fx.orbit).lower()}\ndichotomy: holds\n"
    )
    assert run(capsys, "audit", str(path)) == (0, want, "")


def test_audit_of_a_coloring_that_is_not_perfect(tmp_path, capsys, monkeypatch):
    path = tmp_path / "bad.pcg"
    path.write_text(BAD)
    _forbid(monkeypatch, pcg.report, *UNREAD)
    _forbid(monkeypatch, pcg.orbits, "stabilizer")
    err = "not a perfect coloring: node (1, 0) of color 1 sees [1 1 2 2]\n"
    for json_flag in ([], ["--json"]):
        assert run(capsys, "audit", str(path), *json_flag) == (1, "", err)


def test_enumerate_report_reads_only_its_fields(capsys, monkeypatch):
    _forbid(monkeypatch, pcg.report, *UNREAD)
    argv = ["enumerate", "--width", "4", "--height", "4", "--colors", "3"]
    assert run(capsys, *argv, "--report") == (0, ENUMERATE_4x4_3, "")


def test_dichotomy_of_a_non_covering_skips_the_orbit_decision(monkeypatch):
    _forbid(monkeypatch, pcg.orbits, "stabilizer")
    rep = classify(fixtures.get("3-17-2"))
    assert rep.covering is False
    assert rep.dichotomy is True


def test_dichotomy_of_an_orbit_covering_skips_the_twins(monkeypatch):
    _forbid(monkeypatch, pcg.report, "twin_pairs")
    rep = classify(fixtures.get("L1-a"))
    assert rep.covering is True and rep.orbit is True
    assert rep.dichotomy is True


def test_fields_are_computed_once(monkeypatch):
    calls = []
    canonical = pcg.report.canonical
    monkeypatch.setattr(
        pcg.report, "canonical", lambda F: calls.append(F) or canonical(F)
    )
    F = fixtures.get("h")
    rep = classify(F)
    assert calls == []
    assert rep.canonical == rep.to_json_dict()["canonical"] == canonical(F)
    assert calls == [F]

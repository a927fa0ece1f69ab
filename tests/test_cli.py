"""Command line interface: envelopes, records, exit codes, determinism."""

import contextlib
import io
import json
import os
import subprocess
import sys
import threading
import time
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

import hyper4.analysis as analysis_module
import hyper4.cli as cli_module
from hyper4.cli import DETERMINISM_NOTE, ORIENTABLE_NOTE, SCHEMA, TORSION_NOTE, main
from hyper4.filling import MAX_LISTED_CUSPS
from hyper4.flatgroups import StructuralError
from hyper4.pairing import CODE_ALPHABET, SidePairingSet, build_side_pairings
from hyper4.words import Word


DATA = Path(__file__).parent / "data"


def run(*argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(list(argv))
    return code, buf.getvalue()


def run_json(*argv):
    code, out = run(*argv)
    return code, json.loads(out)


def test_envelope_shape():
    code, doc = run_json("verify", "14FF28")
    assert code == 0
    assert doc["schema"] == SCHEMA == "hyper4-census/1"
    assert doc["tool"] == {"name": "hyper4", "version": "0.1.0"}
    assert doc["command"] == ["verify", "14FF28"]
    assert doc["determinism"] == DETERMINISM_NOTE
    assert doc["errors"] == []
    assert len(doc["records"]) == 1


def test_decode_json_record():
    code, doc = run_json("decode", "14FF28")
    assert code == 0
    rec = doc["records"][0]
    arrows = {a["letter"]: a for a in rec["arrows"]}
    assert len(arrows) == 12
    assert arrows["a"]["source"] == "A" and arrows["a"]["target"] == "A'"
    assert arrows["a"]["k"] == [-1, 1, 1, 1]
    assert len(arrows["a"]["matrix"]) == 5
    assert set(rec["orientation"]) == {"preserving", "reversing"}
    assert rec["orientation"]["reversing"] == ["e", "f", "g", "h"]


def test_decode_text_golden():
    code, out = run("decode", "14FF28", "--format", "text")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "code 14FF28"
    assert lines[1] == "a: A(+1,+1,0,0) -> A'(-1,+1,0,0)  k=(-1,+1,+1,+1)"
    assert "k: K(0,0,+1,+1) -> K'(0,0,+1,-1)  k=(+1,+1,+1,-1)" in lines


def test_decode_invalid_code_exits_nonzero():
    code, doc = run_json("decode", "ZZZZZZ")
    assert code == 1
    assert doc["records"] == []
    assert "position 1" in doc["errors"][0]["message"]


def test_verify_record_values():
    _, doc = run_json("verify", "14FF28")
    rec = doc["records"][0]
    # what decoding settles for every code is proven by the test over all
    # 72 decode entries, and is not printed
    assert "valid" not in rec and "checks" not in rec
    assert rec["ridge_cycles"] == {"count": 24, "lengths": [4]}
    assert rec["chi"] == 1
    assert rec["orientable"] is False
    assert rec["orientation"]["reversing"] == list("efgh")
    assert rec["side_classes"] == 12
    assert rec["ridge_classes"] == 24
    assert rec["edge_classes"] == 12
    assert rec["h1"] == "Z/2 + Z/2 + Z/2 + Z/2 + Z/2 + Z/2"
    assert rec["cusp_types"] == "GGGGG"
    assert rec["signature"] is None


def test_verify_orientable_cusps():
    _, doc = run_json("verify", "1428BD")
    rec = doc["records"][0]
    assert rec["orientable"] is True
    assert rec["cusp_types"] == "FABAA"
    assert rec["signature"] == 0


def test_verify_double_cover_flag():
    _, doc = run_json("verify", "14FF28", "--double-cover")
    rec = doc["records"][0]
    assert rec["double_cover"]["degree"] == 2
    assert rec["double_cover"]["cusp_types"] == "AAAAA"


@pytest.mark.parametrize("code", ["2EBB84", "B1EE7B"])
def test_verify_double_cover_of_orientable_code(code):
    # an orientable code is its own orientation cover: the full record,
    # no cover, and a note saying why
    status, doc = run_json("verify", code, "--double-cover")
    assert status == 0
    assert doc["errors"] == []
    rec = doc["records"][0]
    _, plain = run_json("verify", code)
    expected = plain["records"][0]
    assert expected["orientable"] is True
    assert rec == {
        **expected,
        "notes": [TORSION_NOTE, ORIENTABLE_NOTE],
        "double_cover": None,
    }


def test_torsion_note_is_derived():
    assert TORSION_NOTE == (
        "the side-pairing group is torsion-free by Poincare's polyhedron theorem "
        "(Ratcliffe, Foundations of Hyperbolic Manifolds, section 11.2): its ridge "
        "cycles are the identity and have length 4, its edge stabilizers are "
        "trivial, and its cusp groups are Bieberbach"
    )
    for argv in (("verify", "14FF28"), ("cusps", "1428BD"), ("census", str(DATA / "census_sample.txt"))):
        _, doc = run_json(*argv)
        assert doc["records"] and all(r["notes"] == [TORSION_NOTE] for r in doc["records"])


def test_cusps_record():
    _, doc = run_json("cusps", "14FF28")
    rec = doc["records"][0]
    assert rec["cusp_count"] == 5
    assert [c["size"] for c in rec["cusps"]] == [16, 2, 2, 2, 2]
    assert all(c["flat_type"] == "G" for c in rec["cusps"])
    assert all(c["holonomy"]["order"] == 2 for c in rec["cusps"])
    assert rec["signature"] is None


def test_cusps_torsion_is_error_envelope(monkeypatch):
    def torsion(vclass):
        raise StructuralError("group has torsion over holonomy element x1")

    monkeypatch.setattr(analysis_module, "cusp_flat_group", torsion)
    code, doc = run_json("cusps", "14FF28")
    assert code == 1
    assert doc["records"] == []
    assert doc["errors"] == [
        {"message": "group has torsion over holonomy element x1"}
    ]


# 11CA8B, FF79DA and A6783B, then the first ten rejected pool codes for
# which `cusps` used to print flat types
GATE_CODES = (
    "11CA8B", "FF79DA", "A6783B", "7D39AC", "97BB6F", "13DA84", "1EC364",
    "147D8A", "512FEB", "FCBA64", "B5632F", "B56D3C", "64D87E",
)


@pytest.mark.parametrize("code", GATE_CODES)
def test_cusps_reports_the_error_of_verify(code):
    verify_status, verify_doc = run_json("verify", code)
    cusps_status, cusps_doc = run_json("cusps", code)
    assert verify_status == cusps_status == 1
    assert verify_doc["records"] == cusps_doc["records"] == []
    assert cusps_doc["errors"] == verify_doc["errors"]


@pytest.mark.parametrize(
    "code, message",
    [
        ("FF79DA", "ridge cycle Ca has non-identity matrix: not a manifold code"),
        ("A6783B", "edge orbit loop lIH is a nontrivial stabilizer"),
    ],
)
def test_verify_reports_first_failing_condition(code, message):
    # ridge cycles are checked (closing, then identity matrix) before edge orbits
    status, doc = run_json("verify", code)
    assert status == 1
    assert doc["records"] == []
    assert doc["errors"] == [{"message": message}]


def test_wrong_target_side_is_error_envelope(monkeypatch):
    def tampered(code):
        ps = build_side_pairings(code)
        a, b = ps.pairings[:2]
        return SidePairingSet(code, (replace(a, target=b.target),) + ps.pairings[1:])

    monkeypatch.setattr(analysis_module, "build_side_pairings", tampered)
    status, doc = run_json("verify", "14FF28")
    assert status == 1
    assert doc["records"] == []
    assert doc["errors"] == [
        {"message": "pairing a does not carry the vertices of side A onto those of side B'"}
    ]


@pytest.mark.parametrize(
    "argv",
    [
        ["verify"],
        ["cover", "14FF28", "--cyclic", "x"],
        ["frobnicate", "14FF28"],
        ["classify", "--spin", "--nonspin"],
        # options are spelled out in full: --cyc is not --cyclic
        ["cover", "14FF28", "--cyc", "3"],
    ],
)
def test_bad_argv_is_error_envelope(argv, capsys):
    status = main(argv)
    out, err = capsys.readouterr()
    doc = json.loads(out)
    assert status == 1
    assert err == ""
    assert doc["command"] == argv
    assert doc["records"] == []
    assert len(doc["errors"]) == 1


@pytest.mark.parametrize("argv", [["--help"], ["verify", "--help"]])
def test_help_exits_zero(argv, capsys):
    with pytest.raises(SystemExit) as info:
        main(argv)
    assert info.value.code == 0
    assert capsys.readouterr().out.startswith("usage: hyper4")


def _assert_one_envelope(argv):
    """`main` returns 0 or 1 and prints one envelope, or the text form of
    a decoded code, and raises nothing."""
    status, out = run(*argv)
    assert status in (0, 1), argv
    if status == 0 and argv[:1] == ["decode"] and "text" in argv:
        assert out.startswith("code "), argv
        return
    doc = json.loads(out)
    assert doc["schema"] == SCHEMA, argv
    assert argv[:1] == ["census"] or doc["command"] == argv
    assert bool(doc["errors"]) == (status == 1), argv


@settings(max_examples=200, deadline=None)
@given(
    verb=st.sampled_from(["decode", "verify", "cusps"]),
    code=st.text(alphabet=CODE_ALPHABET + "Zz0 -", max_size=8),
)
def test_any_code_string_gives_one_envelope(verb, code):
    _assert_one_envelope([verb, code])


# verbs, codes and flags; --cyclic takes at most 51, as a cover of degree
# 2n is built in full, and --help, which exits, is left out; no verb has
# --tietze-effort, which stands for an unknown option
ARGV_TOKENS = (
    "decode", "verify", "cusps", "cover", "fill", "classify", "census",
    "14FF28", "FF79DA", "--cyclic", *map(str, range(8)), "25", "51", "-1", "x",
    "--jobs", "--max-cosets", "--format", "text", "--spin",
    "--classify-filling", "--tietze-effort",
)


@settings(max_examples=200, deadline=None)
@given(argv=st.lists(st.sampled_from(ARGV_TOKENS), max_size=5))
# a fill, through Tietze and the lifted enumeration
@example(argv=["cover", "14FF28", "--cyclic", "7", "--classify-filling"])
@example(argv=["cover", "14FF28", "--cyclic", "5", "--tietze-effort", "-1", "--classify-filling"])
def test_any_token_list_gives_one_envelope(argv):
    _assert_one_envelope(argv)


def test_cover_record():
    code, doc = run_json("cover", "14FF28", "--cyclic", "2")
    assert code == 0
    rec = doc["records"][0]
    assert rec["degree"] == 4
    assert rec["chi"] == 4
    assert rec["cusp_lift_counts"] == [2, 1, 2, 2, 2]
    assert rec["cusp_types"] == "A" * 9
    assert rec["sigma"] == 0
    assert rec["spin_status"] == "unknown"


def test_cover_classify_filling():
    code, doc = run_json("cover", "14FF28", "--cyclic", "1", "--classify-filling")
    assert code == 0
    filling = doc["records"][0]["filling"]
    assert filling["status"] == "certified"
    assert filling["verdict"]["verdict"] == "S^4"
    assert filling["simply_connected"] is True


@pytest.mark.parametrize("n", ["1", "2", "3"])
def test_cover_classify_filling_reports_the_cover_record(n):
    _, filled = run_json("cover", "14FF28", "--cyclic", n, "--classify-filling")
    _, plain = run_json("cover", "14FF28", "--cyclic", n)
    record = filled["records"][0]
    del record["filling"]
    assert record == plain["records"][0]


def test_cover_classify_filling_incomplete_enumeration():
    code, doc = run_json(
        "cover", "14FF28", "--cyclic", "3", "--classify-filling", "--max-cosets", "5"
    )
    assert code == 0
    rec = doc["records"][0]
    assert rec["complete"] is False
    assert rec["degree"] is None
    assert rec["spin_status"] == "unknown"
    assert rec["filling"] == {
        "status": "unverified",
        "reason": "coset enumeration did not complete within 5 cosets",
    }


@pytest.mark.parametrize("limit, degree", [("102", 102), ("101", None)])
def test_max_cosets_bounds_the_simplified_enumeration(limit, degree):
    # the filled group of n = 51 is dihedral of order 102: the limit bounds
    # the cover's degree, where an enumeration of it would stop too
    code, doc = run_json("cover", "14FF28", "--cyclic", "51", "--max-cosets", limit)
    assert code == 0
    rec = doc["records"][0]
    assert (rec["complete"], rec["degree"]) == (degree is not None, degree)


def test_closed_stdout_gives_no_traceback():
    env = dict(os.environ, PYTHONPATH=str(Path(cli_module.__file__).resolve().parents[1]))
    proc = subprocess.Popen(
        [sys.executable, "-m", "hyper4.cli", "verify", "14FF28"],
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    )
    proc.stdout.close()  # the reader is gone before the envelope is written
    with proc.stderr:
        err = proc.stderr.read()
    assert proc.wait(timeout=300) == 0
    assert err == b""


@pytest.mark.parametrize(
    "extra",
    [("--classify-filling",), ("--classify-filling", "--max-cosets", "5"), ()],
    ids=["full", "max-cosets-5", "no-filling"],
)
def test_cover_negative_tietze_effort_is_error(extra):
    # Tietze runs to its fixed point, so the cover verb has no effort
    # option: a negative value, or any other, is an unknown argument
    for effort in ("-3", "1000"):
        code, doc = run_json("cover", "14FF28", "--cyclic", "3", "--tietze-effort", effort, *extra)
        assert code == 1
        assert doc["records"] == []
        assert doc["errors"] == [
            {"message": f"hyper4: unrecognized arguments: --tietze-effort {effort}"}
        ]


# the first condition each code fails
MANIFOLD_ERRORS = {
    "FF79DA": "ridge cycle Ca has non-identity matrix: not a manifold code",
    "A6783B": "edge orbit loop lIH is a nontrivial stabilizer",
}


@pytest.mark.parametrize(
    "argv",
    [
        ("fill", "FF79DA", "--meridians", "default"),
        ("fill", "FF79DA", "--meridians", "FILE"),
        ("cover", "FF79DA", "--cyclic", "3"),
        ("fill", "FF79DA", "--meridians", "MISSING"),
        ("fill", "A6783B", "--meridians", "default"),
        ("cover", "A6783B", "--cyclic", "3"),
    ],
)
def test_non_manifold_reported_before_missing_meridians(argv, tmp_path):
    path = tmp_path / "meridians.txt"
    path.write_text("0 : a\n")
    paths = {"FILE": str(path), "MISSING": str(tmp_path / "missing.txt")}
    code, doc = run_json(*(paths.get(a, a) for a in argv))
    assert code == 1
    assert doc["errors"] == [{"message": MANIFOLD_ERRORS[argv[1]]}]


def test_fill_default_meridians():
    code, doc = run_json("fill", "14FF28", "--meridians", "default")
    assert code == 0
    rec = doc["records"][0]
    assert rec["order"] == 2
    assert rec["h1"] == "Z/2"
    assert [m["cusp"] for m in rec["meridians"]] == [0, 1, 2, 3, 4]


def test_fill_meridian_file(tmp_path):
    path = tmp_path / "meridians.txt"
    path.write_text("0: Eg\n1: c ^ 3\n2: a\n3: k\n4: j\n")
    code, doc = run_json("fill", "14FF28", "--meridians", str(path))
    assert code == 0
    assert doc["records"][0]["order"] == 6


def test_fill_rejects_wrong_cusp(tmp_path):
    path = tmp_path / "meridians.txt"
    path.write_text("2: c\n")
    code, doc = run_json("fill", "14FF28", "--meridians", str(path))
    assert code == 1
    assert "stabilizer" in doc["errors"][0]["message"]


@pytest.mark.parametrize(
    "line, word", [("0 :", "1"), ("1: cC", "1"), ("1: CAda", "CAda")],
    ids=["empty", "cancelling", "ridge-cycle-relator"],
)
def test_fill_rejects_a_trivial_meridian(tmp_path, line, word):
    # a word whose matrix is the identity is the trivial element, and a
    # fill along it would kill nothing
    path = tmp_path / "meridians.txt"
    path.write_text(line + "\n")
    code, doc = run_json("fill", "14FF28", "--meridians", str(path))
    assert code == 1
    assert doc["records"] == []
    assert doc["errors"] == [
        {"message": f"meridian {word} is the trivial element: its matrix is the identity"}
    ]


@pytest.mark.parametrize("line", ["0: z", "0: Zz", "1: cZzC", "1: c Z z ^ 3"])
def test_fill_refuses_an_unknown_generator_before_reduction(tmp_path, line):
    # letters outside a-l are refused by name even when they cancel, not
    # reported as a trivial meridian after the reduction removed them
    path = tmp_path / "meridians.txt"
    path.write_text(line + "\n")
    code, doc = run_json("fill", "14FF28", "--meridians", str(path))
    assert code == 1
    assert doc["records"] == []
    assert doc["errors"] == [{"message": "word uses unknown generator 'z'"}]


def test_classify_flags():
    code, doc = run_json("classify", "--chi", "26", "--sigma", "0", "--spin")
    assert code == 0
    assert doc["records"][0]["verdict"]["verdict"] == "#_12(S^2xS^2)"

    code, doc = run_json("classify", "--chi", "6", "--sigma", "3", "--spin")
    assert code == 1
    assert "impossible invariants" in doc["errors"][0]["message"]

    # CP^2: an odd Euler characteristic
    code, doc = run_json("classify", "--chi", "3", "--sigma", "1", "--nonspin")
    assert code == 0
    assert doc["records"][0]["verdict"]["verdict"] == "#_1CP^2#_0CP^2bar"


@pytest.mark.parametrize("verb", ["cover", "fill"])
def test_meridian_power_beyond_the_coset_limit_is_refused(verb, monkeypatch, tmp_path):
    # a regression would expand the power; make that fail before it allocates
    power = Word.__pow__

    def bounded(self, n):
        assert abs(n) <= 10**6, "meridian power expanded"
        return power(self, n)

    monkeypatch.setattr(Word, "__pow__", bounded)
    path = tmp_path / "meridians.txt"
    path.write_text("0: Eg\n1: c ^ 100000000\n2: a\n3: k\n4: j\n")
    argv = {
        "cover": ("cover", "14FF28", "--cyclic", "100000000"),
        "fill": ("fill", "14FF28", "--meridians", str(path)),
    }[verb]
    code, doc = run_json(*argv)
    assert code == 1
    assert doc["records"] == []
    assert doc["errors"] == [
        {"message": "meridian c ^ 100000000: the exponent exceeds the coset limit 1000000"}
    ]


@pytest.mark.parametrize("extra", [(), ("--classify-filling",)], ids=["cover", "classify-filling"])
def test_a_cover_with_more_cusps_than_a_string_holds_is_refused(extra):
    # 4n + 1 cusps pass MAX_LISTED_CUSPS, first at n = 2.5 * 10^7, and at
    # n = 10^20 pass sys.maxsize, the longest string; the count is refused
    # by name before the cusp type string is built.  A 2 GB address space,
    # which 4 * 10^9 types would not fit, shows it.
    assert 4 * 25_000_000 + 1 > MAX_LISTED_CUSPS >= 4 * 24_999_999 + 1
    env = dict(os.environ, PYTHONPATH=str(Path(cli_module.__file__).resolve().parents[1]))
    for n in (25_000_000, 10**9, 10**20):
        argv = ["cover", "14FF28", "--cyclic", str(n), "--max-cosets", str(10 * n), *extra]
        script = (
            "import resource, sys\n"
            "resource.setrlimit(resource.RLIMIT_AS, (2 * 10**9, resource.RLIM_INFINITY))\n"
            "from hyper4.cli import main\n"
            f"sys.exit(main({argv!r}))\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=300
        )
        assert (proc.returncode, proc.stderr) == (1, ""), n
        doc = json.loads(proc.stdout)
        assert doc["records"] == []
        assert doc["errors"] == [
            {"message": f"the cover has {4 * n + 1} cusps, too many to list their types"}
        ]


def test_classify_unknown_spin_reports_both():
    code, doc = run_json("classify", "--chi", "4", "--sigma", "0", "--spin-unknown")
    assert code == 0
    rec = doc["records"][0]
    assert rec["verdicts"]["if_spin"]["verdict"] == "#_1(S^2xS^2)"
    assert rec["verdicts"]["if_not_spin"]["verdict"] == "#_1CP^2#_1CP^2bar"


@pytest.mark.parametrize(
    "content, field",
    [
        ({"records": []}, "'records'"),
        ({"records": [{"sigma": 0}]}, "'chi'"),
        ({"chi": "6", "sigma": 0, "spin_status": "spin"}, "'chi'"),
        ([1, 2], "JSON object"),
        ({"chi": 6, "sigma": 0, "spin_status": "maybe"}, "'spin_status'"),
    ],
    ids=["empty-envelope", "missing-chi", "string-chi", "list", "bad-spin-status"],
)
def test_classify_malformed_record_is_error_envelope(tmp_path, content, field):
    path = tmp_path / "record.json"
    path.write_text(json.dumps(content))
    code, doc = run_json("classify", "--record", str(path))
    assert code == 1
    assert doc["records"] == []
    assert field in doc["errors"][0]["message"]


def test_classify_reads_a_filled_cover_envelope(tmp_path):
    path = tmp_path / "cover.json"
    _, out = run("cover", "14FF28", "--cyclic", "3", "--classify-filling")
    path.write_text(out)
    code, doc = run_json("classify", "--record", str(path))
    assert code == 0
    assert doc["records"][0]["verdict"]["verdict"] == "#_2(S^2xS^2)"


def test_census_runs_sample():
    code, doc = run_json("census", str(DATA / "census_sample.txt"))
    assert code == 0
    assert [(r["line"], r["code"]) for r in doc["records"]] == [
        (2, "14FF28"),
        (3, "1428BD"),
    ]
    assert doc["records"][0]["annotation"] == "five nonorientable cusps"
    assert doc["records"][0]["cusp_types"] == "GGGGG"
    assert doc["records"][1]["cusp_types"] == "FABAA"


def _assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture
def two_cores(monkeypatch):
    """`census --jobs 2` forks one worker on any host."""
    monkeypatch.setattr(os, "cpu_count", lambda: 2)


@pytest.fixture
def forks(monkeypatch):
    """One entry for each `os.fork` call."""
    calls = []
    fork = os.fork
    monkeypatch.setattr(os, "fork", lambda: calls.append(1) or fork())
    return calls


def test_census_identical_across_jobs(two_cores):
    _, out1 = run("census", str(DATA / "census_sample.txt"), "--jobs", "1")
    _, out4 = run("census", str(DATA / "census_sample.txt"), "--jobs", "4")
    _assert_no_child_left()
    assert out1 == out4
    assert json.loads(out1)["command"] == ["census", str(DATA / "census_sample.txt")]


def test_census_workers_are_processes_and_none_is_left():
    # --jobs 2 forks one worker process: no executor module is loaded, no
    # thread started, and the worker is reaped before main returns
    script = (
        "import contextlib, io, os, sys, threading\n"
        "from hyper4.cli import main\n"
        "os.cpu_count = lambda: 2\n"
        "forks = []\n"
        "fork = os.fork\n"
        "os.fork = lambda: forks.append(1) or fork()\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    assert main(['census', {str(DATA / 'census_sample.txt')!r}, '--jobs', '2']) == 0\n"
        "assert forks == [1], forks\n"
        "assert 'concurrent.futures' not in sys.modules, 'concurrent.futures was imported'\n"
        "assert threading.active_count() == 1, threading.enumerate()\n"
        "try:\n"
        "    os.waitpid(-1, os.WNOHANG)\n"
        "except ChildProcessError:\n"
        "    pass\n"
        "else:\n"
        "    raise AssertionError('a child process is left')\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(cli_module.__file__).resolve().parents[1]))
    proc = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=300
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == ""


def test_census_workers_are_capped_by_the_cores(tmp_path, two_cores, forks):
    # --jobs 64 on 4 codes and 2 cores forks one worker, not 63
    path = tmp_path / "census.txt"
    path.write_text("14FF28\n1428BD\n14FF28\n1428BD\n")
    code, doc = run_json("census", str(path), "--jobs", "64")
    _assert_no_child_left()
    assert code == 0 and len(doc["records"]) == 4
    assert forks == [1]


def test_census_failed_fork_stops_the_workers(tmp_path, monkeypatch):
    # three cores, three codes: the second fork fails, so the first
    # worker is stopped and reaped and the failure is the run's error
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    path = tmp_path / "census.txt"
    path.write_text("14FF28\n1428BD\n14FF28\n")
    forks = []
    fork = os.fork

    def second_fails():
        forks.append(1)
        if len(forks) == 2:
            raise BlockingIOError(11, "Resource temporarily unavailable")
        return fork()

    monkeypatch.setattr(os, "fork", second_fails)
    fds = len(os.listdir("/dev/fd"))
    code, doc = run_json("census", str(path), "--jobs", "3")
    _assert_no_child_left()
    assert len(os.listdir("/dev/fd")) == fds
    assert code == 1 and doc["records"] == [] and len(forks) == 2
    assert doc["errors"] == [{"message": "[Errno 11] Resource temporarily unavailable"}]


def test_census_with_threads_runs_in_process(two_cores, forks):
    # another thread may hold a lock that a forked child could never
    # take, so a process with threads verifies its codes itself
    release = threading.Event()
    waiting = threading.Thread(target=release.wait)
    waiting.start()
    try:
        threaded = run("census", str(DATA / "census_sample.txt"), "--jobs", "2")
    finally:
        release.set()
        waiting.join(timeout=10)
    assert not waiting.is_alive()
    assert forks == []
    assert threaded == run("census", str(DATA / "census_sample.txt"), "--jobs", "1")


# lines of a census file: manifolds, rejected and undecodable codes,
# comments, blank lines and annotations
CENSUS_LINES = (
    "14FF28", "1428BD", "157CB4", "2EBB84", "A6783B", "FF79DA", "ZZZZZZ",
    "14FF2", "# a comment", "", "14FF28  an annotation", "A6783B rejected",
)


@settings(max_examples=25, deadline=None)
@given(lines=st.lists(st.sampled_from(CENSUS_LINES), max_size=5))
@example(lines=["ZZZZZZ", "14FF28", "A6783B", "1428BD"])
def test_census_is_the_same_for_one_and_two_jobs(tmp_path_factory, lines):
    path = tmp_path_factory.mktemp("census") / "census.txt"
    path.write_text("\n".join(lines) + "\n")
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(os, "cpu_count", lambda: 2)
        one = run("census", str(path), "--jobs", "1")
        two = run("census", str(path), "--jobs", "2")
    _assert_no_child_left()
    assert one == two


@pytest.mark.parametrize(
    "argv, status, command",
    [
        (["census", "SAMPLE", "--jobs", "2"], 0, ["census", "SAMPLE"]),
        (["census", "SAMPLE", "--jobs=2"], 0, ["census", "SAMPLE"]),
        (["verify", "14FF28", "--jobs", "2"], 1, ["verify", "14FF28", "--jobs", "2"]),
        (["census", "SAMPLE", "--jo", "2"], 1, ["census", "SAMPLE", "--jo", "2"]),
    ],
    ids=["census", "census-equals", "verify", "census-abbreviated"],
)
def test_only_census_leaves_jobs_out_of_command(argv, status, command):
    # census accepts --jobs, which changes no record; any other verb
    # rejects it, as census rejects an abbreviation of it, and its
    # command shows the argv it rejected
    sample = str(DATA / "census_sample.txt")
    code, doc = run_json(*(sample if a == "SAMPLE" else a for a in argv))
    assert code == status
    assert doc["command"] == [sample if a == "SAMPLE" else a for a in command]
    if status == 1:
        message = "hyper4: unrecognized arguments: " + " ".join(argv[2:])
        assert doc["errors"] == [{"message": message}]


@pytest.mark.parametrize("jobs", ["0", "-2"])
def test_census_rejects_nonpositive_jobs(jobs):
    # rejected before the file is read: the path does not exist
    code, doc = run_json("census", "no_such_file.txt", "--jobs", jobs)
    assert code == 1
    assert doc["records"] == []
    assert doc["errors"] == [{"message": "--jobs must be a positive integer"}]


def test_census_bad_line_is_error_not_abort(tmp_path):
    path = tmp_path / "census.txt"
    path.write_text("14FF28\nZZZZZZ\n1428BD\n")
    code, doc = run_json("census", str(path))
    assert code == 1
    assert len(doc["records"]) == 2
    assert len(doc["errors"]) == 1
    assert doc["errors"][0]["line"] == 2


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_census_propagates_internal_assertion(tmp_path, monkeypatch, two_cores, jobs):
    # an AssertionError is an internal invariant, not a verdict on the code:
    # census lets it out, as verify does, whichever process met it; with
    # --jobs 2, 14FF28 and 157CB4 fall to this process and 1428BD to the
    # worker, and the first failure in file order is the one raised
    path = tmp_path / "census.txt"
    path.write_text("14FF28\n1428BD\n157CB4\n")
    parent = os.getpid()
    failing = ()

    def broken(code):
        if code in failing:
            where = "here" if os.getpid() == parent else "in a worker"
            raise AssertionError(f"internal invariant of {code} {where}")
        return {"code": code}

    monkeypatch.setattr(cli_module, "_verify_record", broken)
    for failing in [("14FF28",), ("1428BD",), ("1428BD", "157CB4")]:
        where = "in a worker" if jobs == "2" and failing[0] == "1428BD" else "here"
        with pytest.raises(AssertionError, match=f"^internal invariant of {failing[0]} {where}$"):
            run("census", str(path), "--jobs", jobs)
        _assert_no_child_left()


def test_census_worker_that_dies_is_an_error(monkeypatch, two_cores):
    # a worker that ends without reporting gives an error naming its wait
    # status, never a hang or a record left out
    parent = os.getpid()
    verify = cli_module._verify_record

    def dying(code):
        if os.getpid() != parent:
            os._exit(3)
        return verify(code)

    monkeypatch.setattr(cli_module, "_verify_record", dying)
    code, doc = run_json("census", str(DATA / "census_sample.txt"), "--jobs", "2")
    _assert_no_child_left()
    assert code == 1
    assert doc["records"] == []
    assert doc["errors"] == [
        {"message": "a census worker ended without reporting: wait status 768"}
    ]


def test_census_interrupt_stops_the_workers(tmp_path, monkeypatch, two_cores):
    # an interrupt in this process's share stops and reaps the worker
    # rather than waiting for its share
    path = tmp_path / "census.txt"
    path.write_text("14FF28\n1428BD\n")
    parent = os.getpid()

    def interrupted(code):
        if os.getpid() != parent:
            time.sleep(60)
        raise KeyboardInterrupt

    monkeypatch.setattr(cli_module, "_verify_record", interrupted)
    start = time.monotonic()
    with pytest.raises(KeyboardInterrupt):
        run("census", str(path), "--jobs", "2")
    _assert_no_child_left()
    assert time.monotonic() - start < 30


def test_missing_file_is_clean_error():
    code, doc = run_json("census", "no_such_file.txt")
    assert code == 1
    assert doc["records"] == []
    assert doc["errors"]


# lines of the files that fill, census and classify read: meridians, some
# malformed, trivial or with a bad exponent; census codes; JSON that is
# not a record, nested past the recursion limit included
FILE_LINES = (
    "0: Eg", "1: c ^ 3", "2: a", "2: c", "0 :", "1: cC", "1: CAda", "x: a",
    "1 c", "-1: a", "9: a", "1: z", "1: a!b", "1: c ^ 0", "1: c ^ x", "1: c ^",
    "1: c ^ -2", "1: c ^ 99999999", "1: c ^ 2 ^ 3", "1: c ^ " + "9" * 5000,
    "# a comment", "", "14FF28", "ZZZZZZ", "A6783B an annotation",
    "[1, 2]", "3", "null", '"chi"', '{"records": [1]}', '{"chi": true, "sigma": 0}',
    '{"chi": 6, "sigma": 0, "spin_status": "spin"}', "[" * 100000 + "]" * 100000,
)


@st.composite
def _file_bytes(draw):
    data = "\n".join(draw(st.lists(st.sampled_from(FILE_LINES), max_size=5))).encode()
    if draw(st.booleans()):
        # bytes that are not UTF-8, spliced in anywhere
        at = draw(st.integers(0, len(data)))
        data = data[:at] + draw(st.sampled_from((b"\xff", b"\x80abc", b"\xc3("))) + data[at:]
    return data


@settings(max_examples=30, deadline=None)
# None stands for a directory in place of the file
@given(content=st.one_of(_file_bytes(), st.binary(max_size=40), st.none()))
@example(content=None)
@example(content=b"1: cC\n")
@example(content=FILE_LINES[-1].encode())
def test_any_file_argument_gives_one_envelope(tmp_path_factory, content):
    path = tmp_path_factory.mktemp("file")
    if content is not None:
        path = path / "input"
        path.write_bytes(content)
    stderr = io.StringIO()
    with pytest.MonkeyPatch.context() as patch, contextlib.redirect_stderr(stderr):
        patch.setattr(os, "cpu_count", lambda: 2)
        for argv in (
            ["fill", "14FF28", "--meridians", str(path), "--max-cosets", "1000"],
            ["census", str(path), "--jobs", "1"],
            ["census", str(path), "--jobs", "2"],
            ["classify", "--record", str(path)],
        ):
            _assert_one_envelope(argv)
    _assert_no_child_left()
    assert stderr.getvalue() == ""

"""CodeAnalysis: each derived quantity once, equal to the free functions."""

import contextlib
import io
import threading
from collections import Counter

import pytest
import sympy

import hyper4.analysis as analysis_module
import hyper4.pairing as pairing_module
from hyper4.analysis import CodeAnalysis
from hyper4.cli import main
from hyper4.cusp import cusp_flat_group, vertex_classes
from hyper4.flatgroups import classify_flat_group
from hyper4.pairing import build_side_pairings, fundamental_group


VERB_CALLS = pytest.mark.parametrize(
    "argv",
    [
        ["verify", "14FF28"],
        ["cover", "14FF28", "--cyclic", "3", "--classify-filling"],
        ["fill", "14FF28", "--meridians", "default"],
        ["verify", "14FF28", "--double-cover"],
    ],
    ids=["verify", "classify-filling", "fill", "double-cover"],
)


@VERB_CALLS
def test_face_cycles_computed_once_per_analysis(monkeypatch, argv):
    calls = Counter()
    for name in ("_ridge_cycles", "_edge_orbits"):
        original = getattr(pairing_module, name)

        def counted(pairing_set, name=name, original=original):
            calls[name] += 1
            return original(pairing_set)

        monkeypatch.setattr(pairing_module, name, counted)
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(argv) == 0
    assert calls == {"_ridge_cycles": 1, "_edge_orbits": 1}


@VERB_CALLS
def test_one_analysis_per_verb(monkeypatch, argv):
    # the double cover reads the verb's analysis instead of decoding again
    codes = []
    original = analysis_module.build_side_pairings

    def counted(code):
        codes.append(code)
        return original(code)

    monkeypatch.setattr(analysis_module, "build_side_pairings", counted)
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(argv) == 0
    assert codes == ["14FF28"]


@pytest.mark.parametrize("code", ["14FF28", "1428BD"])
def test_analysis_matches_free_functions(code):
    analysis = CodeAnalysis(code)
    pairing_set = build_side_pairings(code)
    assert analysis.pairing_set == pairing_set
    assert analysis.chi == 1
    assert analysis.presentation == fundamental_group(pairing_set)
    classes = vertex_classes(pairing_set)
    assert analysis.classes == classes
    assert [tag for _, tag in analysis.cusps] == [
        classify_flat_group(cusp_flat_group(vc)) for vc in classes
    ]
    assert analysis.signs == {
        p.letter: sympy.Matrix(p.matrix.rows).det() for p in pairing_set.pairings
    }


def test_attributes_are_computed_once(monkeypatch):
    calls = Counter()
    original = analysis_module.vertex_classes

    def counted(pairing_set):
        calls[pairing_set.code] += 1
        return original(pairing_set)

    monkeypatch.setattr(analysis_module, "vertex_classes", counted)
    CodeAnalysis("14FF28")
    assert calls == {"14FF28": 1}


def test_analyses_of_different_codes_do_not_wait_on_each_other(monkeypatch):
    # a library caller may analyse codes on threads of its own: one
    # analysis stuck in its vertex classes must not hold up another
    entered, release = threading.Event(), threading.Event()
    original = analysis_module.vertex_classes

    def held(pairing_set):
        if pairing_set.code == "14FF28":
            entered.set()
            release.wait(30)
        return original(pairing_set)

    monkeypatch.setattr(analysis_module, "vertex_classes", held)
    stuck = threading.Thread(target=lambda: CodeAnalysis("14FF28").classes)
    stuck.start()
    try:
        assert entered.wait(30)
        other = threading.Thread(target=lambda: CodeAnalysis("1428BD").classes)
        other.start()
        other.join(10)
        assert not other.is_alive()
    finally:
        release.set()
        stuck.join()

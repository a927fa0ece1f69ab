"""End-to-end acceptance checks for the census pipeline.

Each test covers one acceptance criterion and prints a single
`ACCEPT nn <label>: PASS|FAIL` line (visible with `pytest -s` or
in captured output on failure), so the whole gate reads as a
checklist.
"""

import functools
import inspect
import json
from fractions import Fraction

import pytest
import sympy

import hyper4.filling as filling_module
from hyper4.analysis import CodeAnalysis
from hyper4.cli import main as cli_main
from hyper4.cusp import (
    cusp_flat_group,
    eta,
    signature,
    vertex_classes,
)
from hyper4.filling import (
    DOUBLE_COVER_SPIN,
    Meridian,
    classify_homeo,
    cyclic_cover,
    default_meridians,
    double_cover_record,
    fill,
)
from hyper4.flatgroups import classify_flat_group, reference_flat_groups
from hyper4.grouppres import (
    abelianization,
    character_coset_table,
    parse_presentation,
    reidemeister_schreier,
    tietze_simplify,
    todd_coxeter,
)
from hyper4.lorentz import IDENTITY, LorentzVector
from hyper4.pairing import build_side_pairings, face_cycles, fundamental_group
from hyper4.words import parse_word


PAIRINGS = build_side_pairings("14FF28")
ANALYSIS = CodeAnalysis("14FF28")
CLASSES = vertex_classes(PAIRINGS)


def criterion(number, label):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"ACCEPT {number:02d} {label}: FAIL")
                raise
            print(f"ACCEPT {number:02d} {label}: PASS")
        return wrapper
    return decorate


@criterion(1, "decode fidelity")
def test_accept_decode_fidelity():
    expected = {
        "a": ("A", "A'", (-1, 1, 1, 1)),
        "b": ("B", "B'", (-1, 1, 1, 1)),
        "c": ("C", "C'", (1, 1, -1, 1)),
        "d": ("D", "D'", (1, 1, -1, 1)),
        "e": ("E", "E'", (-1, -1, -1, -1)),
        "f": ("F", "F'", (-1, -1, -1, -1)),
        "g": ("G", "G'", (-1, -1, -1, -1)),
        "h": ("H", "H'", (-1, -1, -1, -1)),
        "i": ("I", "I'", (1, -1, 1, 1)),
        "j": ("J", "J'", (1, -1, 1, 1)),
        "k": ("K", "K'", (1, 1, 1, -1)),
        "l": ("L", "L'", (1, 1, 1, -1)),
    }
    assert len(PAIRINGS.pairings) == 12
    for p in PAIRINGS.pairings:
        assert (p.source.label, p.target.label, p.kpart) == expected[p.letter]


@criterion(2, "group membership and orientation split")
def test_accept_group_membership():
    # the group facts by sympy, sharing no code with the package
    j = sympy.diag(1, 1, 1, 1, -1)
    preserving, reversing = [], []
    for p in PAIRINGS.pairings:
        m = sympy.Matrix(p.matrix.rows)
        assert m.T * j * m == j
        assert m[4, 4] > 0
        assert all(x % 2 == 0 for x in m - sympy.eye(5))
        assert p.sign == m.det()
        (preserving if p.sign == 1 else reversing).append(p.letter)
    assert preserving == list("abcdijkl")
    assert reversing == list("efgh")


@criterion(3, "ridge cycles and Euler characteristic")
def test_accept_manifold_conditions():
    ridge = face_cycles(PAIRINGS, 2)
    assert len(ridge) == 24
    for cyc in ridge:
        assert cyc.length == 4
        assert PAIRINGS.evaluate(cyc.word) == IDENTITY
    assert ANALYSIS.chi == 1


@criterion(4, "cusp structure and parabolic words")
def test_accept_cusp_structure():
    assert sorted(len(vc.members) for vc in CLASSES) == [2, 2, 2, 2, 16]
    assert [classify_flat_group(cusp_flat_group(vc)) for vc in CLASSES] == ["G"] * 5
    # tabulated generators of each cusp group; the half-vertex class
    # third word carries a trailing c (the bare 4-letter variant fixes
    # no vertex of the class)
    table = {
        0: ((1, 1, 1, 1, 2), ["Eg", "AKak", "AKJfc"]),
        1: ((1, 0, 0, 0, 1), ["c", "Ab", "Ag"]),
        2: ((0, 1, 0, 0, 1), ["a", "Ef", "Ei"]),
        3: ((0, 0, 1, 0, 1), ["k", "Cd", "Ce"]),
        4: ((0, 0, 0, 1, 1), ["GH", "Gk"]),
    }
    for index, (coords, words) in table.items():
        vertex = LorentzVector(coords)
        assert vertex in CLASSES[index].members
        for text in words:
            assert PAIRINGS.evaluate(parse_word(text)).apply(vertex) == vertex
    corner = LorentzVector((0, 0, 0, -1, 1))
    assert PAIRINGS.evaluate(parse_word("j")).apply(corner) == corner


@criterion(5, "orientation double cover")
def test_accept_double_cover():
    pres = fundamental_group(PAIRINGS)
    signs = {p.letter: p.sign for p in PAIRINGS.pairings}
    table = character_coset_table(pres, signs)
    sub = reidemeister_schreier(pres, table)
    assert len(sub.generators) == 24
    before = abelianization(sub)
    after = abelianization(tietze_simplify(sub))
    assert (before.rank, before.torsion) == (after.rank, after.torsion)
    rec = double_cover_record(CodeAnalysis("14FF28"))
    assert rec.chi == 2
    assert rec.cusp_count == 5
    assert rec.cusp_types == "AAAAA"


@criterion(6, "filling quotients")
def test_accept_filling_quotients():
    base = default_meridians("14FF28")
    pres1 = fill(ANALYSIS, base)
    table1 = todd_coxeter(pres1, limit=10**4)
    assert table1.complete and table1.index == 2
    for n in (2, 3, 4, 5, 7):
        meridians = [
            Meridian(m.cusp_index, m.word, n if m.cusp_index == 1 else 1)
            for m in base
        ]
        pres = fill(ANALYSIS, meridians)
        table = todd_coxeter(pres, limit=10**4)
        assert table.complete and table.index == 2 * n
        dihedral = parse_presentation(f"gens: c e\nc^{n}\ne^2\nEcec\n")
        ab = abelianization(pres)
        ref = abelianization(dihedral)
        assert (ab.rank, ab.torsion) == (ref.rank, ref.torsion)


@criterion(7, "cyclic cover invariants")
def test_accept_cyclic_covers():
    for n in (1, 2, 3, 5, 7):
        rec = cyclic_cover("14FF28", n)
        assert rec.complete
        assert rec.cusp_count == 4 * n + 1
        assert rec.chi == 2 * n
        assert rec.cusp_types == "A" * (4 * n + 1)
        assert rec.sigma == 0


@criterion(8, "eta table and signature")
def test_accept_eta_signature():
    assert [eta(t) for t in "ABCDEF"] == [
        Fraction(0),
        Fraction(0),
        Fraction(-2, 3),
        Fraction(-1),
        Fraction(-4, 3),
        Fraction(0),
    ]
    assert signature(["A"] * 5) == 0
    assert signature(["B"] * 4) == 0
    assert signature(["A", "B"] * 10) == 0


@criterion(9, "homeomorphism verdicts")
def test_accept_classification():
    assert classify_homeo(2, 0, True, True).verdict == "S^4"
    assert classify_homeo(6, 0, True, True).verdict == "#_2(S^2xS^2)"
    assert classify_homeo(26, 0, True, True).verdict == "#_12(S^2xS^2)"
    for k in (1, 2, 3):
        assert (
            classify_homeo(2 * k + 2, 0, False, True).verdict
            == f"#_{k}CP^2#_{k}CP^2bar"
        )


@criterion(10, "property suites")
def test_accept_property_suites(tmp_path):
    # flat classifier recovers all ten reference types
    refs = reference_flat_groups()
    assert [classify_flat_group(g) for t, g in sorted(refs.items())] == list(
        "ABCDEFGHIJ"
    )
    # Euler characteristic is multiplicative over every constructed cover
    for n in (1, 2, 3):
        rec = cyclic_cover("14FF28", n)
        assert rec.chi == rec.degree * 1
    assert double_cover_record(CodeAnalysis("14FF28")).chi == 2
    # every relator of the presentation evaluates to the identity matrix
    pres = fundamental_group(PAIRINGS)
    for rel in pres.relators:
        assert PAIRINGS.evaluate(rel) == IDENTITY
    # reports are byte identical whatever --jobs says
    sample = tmp_path / "census.txt"
    sample.write_text("14FF28\n1428BD\n")
    outputs = []
    for jobs in ("1", "2", "4"):
        import contextlib
        import io

        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            rc = cli_main(["census", str(sample), "--jobs", jobs])
        assert rc == 0
        outputs.append(buf.getvalue())
    assert outputs[0] == outputs[1] == outputs[2]


@criterion(11, "scope limits declared")
def test_accept_scope_honesty(tmp_path):
    # the double-cover spin flag is configuration with documented provenance,
    # not a computation
    source = inspect.getsource(filling_module)
    marker = source.index("DOUBLE_COVER_SPIN: dict")
    assert "not computed here" in source[max(0, marker - 300):marker]
    assert DOUBLE_COVER_SPIN == {"14FF28": True}
    # no bundled census: verification beyond the built-in example needs an
    # external file, which the census verb accepts
    external = tmp_path / "external.txt"
    external.write_text("1428BD external record\n")
    import contextlib
    import io

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli_main(["census", str(external)])
    assert rc == 0
    doc = json.loads(buf.getvalue())
    assert doc["records"][0]["code"] == "1428BD"
    # spin status never asserted where unknown: even covers stay "unknown"
    assert cyclic_cover("14FF28", 2).spin_status == "unknown"
    with pytest.raises(ValueError):
        default_meridians("1428BD")

"""Dehn fillings, cyclic covers, and the homeomorphism classifier."""

import contextlib
import io
import json
import re
from collections import Counter
from dataclasses import fields
from functools import cache
from fractions import Fraction
from itertools import product
from math import gcd
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import reference_certificate
import reference_covers
from reference_covers import written_table
from reference_walks import cube_map
import hyper4.filling as filling_module
import hyper4.grouppres as grouppres_module
from hyper4.analysis import CodeAnalysis
from hyper4.cli import main
from hyper4 import cusp as cusp_module
from hyper4.cusp import _affine, horospherical_action, vertex_classes
from hyper4.filling import (
    DEFAULT_MERIDIANS,
    DIHEDRAL_MAPS,
    DOUBLE_COVER_SPIN,
    CoverRecord,
    Meridian,
    _cusp_intersection_group,
    _dihedral_certificate,
    _euclid,
    _kernel_generators,
    _orientable,
    _peripheral_failure,
    _pulls_back,
    _rebased_meridian,
    _rotation_half,
    classify_filled_cover,
    classify_homeo,
    conditional_verdicts,
    cover_record_from_dihedral_map,
    cover_record_from_table,
    cyclic_cover,
    default_meridians,
    double_cover_record,
    fill,
    parse_meridian_lines,
    validate_meridians,
)
from hyper4.flatgroups import AffineMap, FlatGroup, _reference_affine_data
from hyper4.grouppres import (
    DEFAULT_COSET_LIMIT,
    CosetTable,
    _enumerate,
    abelianization,
    character_coset_table,
    dihedral_image,
    quotient,
    reidemeister_schreier,
    todd_coxeter,
)
from hyper4.pairing import build_side_pairings, fundamental_group
from hyper4.words import Word, parse_word


PAIRINGS = build_side_pairings("14FF28")
CLASSES = vertex_classes(PAIRINGS)
ANALYSIS = CodeAnalysis("14FF28")


def _default_with_power(n):
    meridians = []
    for cusp, text in DEFAULT_MERIDIANS["14FF28"]:
        power = n if cusp == 1 else 1
        meridians.append(Meridian(cusp, parse_word(text) ** power))
    return meridians


def test_breadth_first_order_pins():
    # stabilizer words, transversals and tree relators all follow one
    # breadth-first order: generators in listed order, then inverses
    assert [[str(w) for w, _ in vc.stabilizer] for vc in CLASSES] == [
        ["eG", "gE", "djDJ", "blBL", "jlFCB", "jlhCB", "dkiEB", "dkhJB",
         "lbLB", "bliFD", "jdJD", "blGJD", "blciE", "bcHLJ"],
        ["aB", "d", "D", "aG", "aH", "bA", "gA", "hA"],
        ["b", "B", "eF", "eI", "eJ", "fE", "iE", "jE"],
        ["cD", "cE", "cf", "l", "L", "dC", "eC", "FC"],
        ["gh", "j", "J", "gK", "gL", "HG", "kG", "lG"],
    ]
    table = todd_coxeter(fill(ANALYSIS, _default_with_power(3)))
    subgroup = reidemeister_schreier(fundamental_group(PAIRINGS), table)
    assert [str(r) for r in subgroup.relators[-5:]] == ["c0", "e0", "c3", "e1", "c2"]


def test_default_meridians_known_code():
    meridians = default_meridians("14FF28")
    assert [m.cusp_index for m in meridians] == [0, 1, 2, 3, 4]
    assert [str(m.word) for m in meridians] == ["Eg", "c", "a", "k", "j"]
    with pytest.raises(ValueError):
        default_meridians("1428BD")


def test_meridian_relator_power():
    m = Meridian(1, parse_word("c"), exponent=3)
    assert str(m.relator) == "ccc"


def test_parse_meridian_lines():
    lines = [
        "# filling instructions",
        "0: Eg",
        "1: c ^ 3",
        "4: j^-1",
    ]
    meridians = parse_meridian_lines(lines)
    assert [(m.cusp_index, str(m.word), m.exponent) for m in meridians] == [
        (0, "Eg", 1),
        (1, "c", 3),
        (4, "j", -1),
    ]


def test_parse_meridian_lines_errors():
    with pytest.raises(ValueError, match="line 1"):
        parse_meridian_lines(["not a meridian"])
    with pytest.raises(ValueError, match="line 2"):
        parse_meridian_lines(["0: Eg", "1: c ^ 0"])
    with pytest.raises(ValueError, match="line 1"):
        parse_meridian_lines(["x: Eg"])


def test_validate_meridians_accepts_defaults():
    validate_meridians(PAIRINGS, CLASSES, default_meridians("14FF28"))


def test_validate_meridians_rejects_bad_index():
    bad = [Meridian(7, parse_word("c"))]
    with pytest.raises(ValueError):
        validate_meridians(PAIRINGS, CLASSES, bad)


def test_validate_meridians_rejects_non_parabolic():
    # c stabilizes cusp 1, not cusp 2
    bad = [Meridian(2, parse_word("c"))]
    with pytest.raises(ValueError, match="stabilizer"):
        validate_meridians(PAIRINGS, CLASSES, bad)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 7])
def test_filled_group_is_dihedral(n):
    # filling with {Eg, c^n, a, k, j} leaves the dihedral group of order 2n
    pres = fill(ANALYSIS, _default_with_power(n))
    table = todd_coxeter(pres, limit=10**4)
    assert table.complete and table.index == 2 * n
    ab = abelianization(pres)
    if n % 2:
        assert (ab.rank, ab.torsion) == (0, (2,))
    else:
        assert (ab.rank, ab.torsion) == (0, (2, 2))


def test_double_cover_record():
    rec = double_cover_record(CodeAnalysis("14FF28"))
    assert rec.complete
    assert rec.degree == 2
    assert rec.chi == 2
    assert rec.face_counts == {
        "cells": 2,
        "sides": 24,
        "ridges": 48,
        "edges": 24,
        "chi": 2,
    }
    assert rec.cusp_lift_counts == (1, 1, 1, 1, 1)
    assert rec.cusp_types == "AAAAA"
    assert rec.cusp_count == 5
    assert rec.orientable
    assert rec.sigma == 0
    assert rec.spin_status == ("spin" if DOUBLE_COVER_SPIN["14FF28"] else "unknown")
    assert rec.degree_over_double_cover == 1


@pytest.mark.parametrize("n", [1, 2, 3])
def test_cyclic_cover_invariants(n):
    rec = cyclic_cover("14FF28", n)
    assert rec.complete
    assert rec.degree == 2 * n
    assert rec.chi == 2 * n
    assert rec.face_counts["chi"] == 2 * n
    assert rec.cusp_lift_counts == (n, 1, n, n, n)
    assert rec.cusp_count == 4 * n + 1
    assert rec.cusp_types == "A" * (4 * n + 1)
    assert rec.orientable
    assert rec.sigma == 0
    assert rec.spin_status == ("spin" if n % 2 else "unknown")
    assert rec.degree_over_double_cover == n


def test_cyclic_cover_respects_limit():
    rec = cyclic_cover("14FF28", 3, limit=4)
    assert not rec.complete
    assert rec.degree is None


# the certificate's enumeration: the cosets of <c> in K = pi / <<Eg, a, k, j>>
CERTIFICATE_ENUMERATION = (DEFAULT_COSET_LIMIT, ("c",))


@pytest.fixture
def enumerations(monkeypatch):
    """The (limit, subgroup words) of every coset enumeration made, by
    `todd_coxeter` or by the certificate; G_n's has no subgroup words."""
    calls = []
    enumerate_ = grouppres_module._enumerate

    def counted(pres, limit, subgroup=()):
        calls.append((limit, tuple(str(w) for w in subgroup)))
        return enumerate_(pres, limit, subgroup)

    for module in (filling_module, grouppres_module):
        monkeypatch.setattr(module, "_enumerate", counted)
    return calls


@pytest.mark.parametrize("n", [*range(1, 61), 101, 1001])
def test_written_dihedral_table_is_the_enumerated_one(n, enumerations):
    # a standardized table is unique, so D_n's written table is the
    # enumeration's, and every record built on it stays the same
    _, table = written_table("14FF28", n)
    assert enumerations == [CERTIFICATE_ENUMERATION]
    assert table == todd_coxeter(fill(ANALYSIS, _default_with_power(n)))


def _naive_coset_count(relators, subgroup, limit=10**4):
    """The index of the subgroup, by the textbook loop: each coset in turn
    traces each relator, defining cosets for every missing letter but the
    last, and a trace that ends at the wrong coset equates two cosets,
    merged by rewriting every entry of the table.  A word is a tuple of
    (name, exponent) letters.  None past `limit` cosets."""
    letters = sorted({letter for word in relators for letter in word})
    table: dict[int, dict] = {0: {}}
    count = 1

    def merge(a, b):
        work = [(a, b)]
        while work:
            a, b = sorted(work.pop())
            if a == b or b not in table:
                continue
            row = table.pop(b)
            for other in table.values():
                for letter, target in other.items():
                    if target == b:
                        other[letter] = a
            for letter, target in row.items():
                target = a if target == b else target
                if letter not in table[a]:
                    table[a][letter] = target
                elif table[a][letter] != target:
                    work.append((table[a][letter], target))
            work = [(a if x == b else x, a if y == b else y) for x, y in work]

    def close(start, word):
        nonlocal count
        c = start
        for name, exp in word[:-1]:
            if (name, exp) not in table[c]:
                table[c][name, exp] = count
                table[count] = {(name, -exp): c}
                count += 1
            c = table[c][name, exp]
        name, exp = word[-1]
        end = table[c].get((name, exp))
        if end is None:
            table[c][name, exp] = start
            back = table[start].setdefault((name, -exp), c)
            if back != c:
                merge(back, c)
        elif end != start:
            merge(end, start)

    for word in subgroup:
        close(0, word)
    c = 0
    while c < count:
        for word in relators:
            if c not in table or count > limit:
                break
            close(c, word)
        if count > limit:
            return None
        c += 1
    # every live coset must be closed under every letter and relator
    for c, row in table.items():
        assert set(row) == set(letters), c
        for word in relators:
            end = c
            for letter in word:
                end = table[end][letter]
            assert end == c
    return len(table)


def test_naive_enumeration_finds_two_cosets_of_the_meridian():
    # K = pi / <<Eg, a, k, j>>: <c> has index 2, the certificate's count
    words = [r.letters for r in ANALYSIS.presentation.relators]
    words += [parse_word(w).letters for w in ("Eg", "a", "k", "j")]
    assert _naive_coset_count(words, [parse_word("c").letters]) == 2
    # and the trivial subgroup of G_3 = K / <<c^3>> has the 6 cosets of D_3
    assert _naive_coset_count(words + [parse_word("ccc").letters], []) == 6


def test_dihedral_certificate_holds_on_the_interim_map(enumerations):
    images = _dihedral_certificate(ANALYSIS, default_meridians("14FF28"))
    assert images == {x: DIHEDRAL_MAPS["14FF28"].get(x, (0, 0)) for x in "abcdefghijkl"}
    assert enumerations == [CERTIFICATE_ENUMERATION]
    # the subgroup enumeration completes within 34 cosets and not fewer
    others = quotient(ANALYSIS.presentation, [parse_word(w) for w in ("Eg", "a", "k", "j")])
    subgroup = [parse_word("c")]
    assert len(_enumerate(others, 34, subgroup).rows) == 2
    assert not _enumerate(others, 33, subgroup).complete


def _refusal(message):
    return pytest.raises(ValueError, match="^" + re.escape(message) + "$")


@pytest.mark.parametrize(
    "mutation, message",
    [
        ({"e": (0, 0)}, "meridian Eg to (0, 1), not (0, 0)"),
        ({"c": (2, 0)}, "meridian c to (2, 0), not (1, 0)"),
        ({"a": (1, 0)}, "meridian a to (1, 0), not (0, 0)"),
    ],
    ids=["e-to-1", "c-to-r2", "a-to-r"],
)
def test_a_wrong_map_is_refused_by_name(mutation, message, monkeypatch, enumerations):
    # a map that fails the certificate gives no record, and no enumeration
    # of G_n stands in for it
    monkeypatch.setitem(DIHEDRAL_MAPS, "14FF28", {**DIHEDRAL_MAPS["14FF28"], **mutation})
    message = f"the map onto D_inf sends {message}"
    with _refusal(message):
        _dihedral_certificate(ANALYSIS, default_meridians("14FF28"))
    for n in (3, 8):
        for limit in (10, 10**6):
            with _refusal(message):
                cyclic_cover("14FF28", n, limit)
            with _refusal(message):
                classify_filled_cover("14FF28", n, limit)
    assert enumerations == []


def test_a_code_without_a_map_is_refused(monkeypatch, enumerations):
    monkeypatch.delitem(DIHEDRAL_MAPS, "14FF28")
    message = "no map onto D_inf is on record for code 14FF28"
    with _refusal(message):
        cyclic_cover("14FF28", 5)
    with _refusal(message):
        classify_filled_cover("14FF28", 5, limit=5)
    assert enumerations == []
    # the command line reports it in the error envelope
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        assert main(["cover", "14FF28", "--cyclic", "5"]) == 1
    out = json.loads(buffer.getvalue())
    assert out["records"] == [] and out["errors"] == [{"message": message}]


def test_each_certificate_condition_is_named(monkeypatch):
    meridians = default_meridians("14FF28")
    cases = [
        ({"c": (1, 0), "d": (1, 0)}, "the map onto D_inf sends no letter to a reflection"),
        ({**IMAGES, "b": (1, 0)}, "the map onto D_inf does not kill relator Ebea"),
        ({**IMAGES, "l": (0, 1)}, "the map onto D_inf does not kill relator KClc"),
    ]
    for entries, message in cases:
        monkeypatch.setitem(DIHEDRAL_MAPS, "14FF28", entries)
        with _refusal(message):
            _dihedral_certificate(ANALYSIS, meridians)
    monkeypatch.setitem(DIHEDRAL_MAPS, "14FF28", IMAGES)
    # without one of the other meridians, <c> has more than two cosets:
    # bounded here so that the enumeration stops early
    monkeypatch.setattr(filling_module, "DEFAULT_COSET_LIMIT", 40)
    message = (
        "meridian c does not generate a subgroup of index 2 once the other "
        "meridians are killed, by an enumeration within 40 cosets"
    )
    for dropped in (0, 2, 3, 4):
        with _refusal(message):
            _dihedral_certificate(ANALYSIS, [m for m in meridians if m.cusp_index != dropped])


@pytest.mark.parametrize("n", [*range(1, 61), 101])
def test_max_cosets_boundary_is_twice_n(n, enumerations):
    # the record is complete exactly when its 2n cosets fit, and the
    # certificate's enumeration runs within the default limit, whatever
    # the caller's
    assert cyclic_cover("14FF28", n, limit=2 * n).degree == 2 * n
    assert not cyclic_cover("14FF28", n, limit=2 * n - 1).complete
    assert enumerations == [CERTIFICATE_ENUMERATION] * 2


def test_limits_below_the_certificate_give_the_enumeration(enumerations):
    # below the 34 cosets the certificate defines, the limit still bounds
    # only the degree 2n and the meridian exponent, so the record is the
    # one of G_n's enumeration within the limit, which the certificate
    # stands in for
    rec = cyclic_cover("14FF28", 1, limit=5)
    assert (rec.complete, rec.degree, rec.cusp_types) == (True, 2, "AAAAA")
    assert not cyclic_cover("14FF28", 3, limit=5).complete
    assert enumerations == [CERTIFICATE_ENUMERATION] * 2
    message = r"^meridian c \^ 7: the exponent exceeds the coset limit 5$"
    with pytest.raises(ValueError, match=message):
        cyclic_cover("14FF28", 7, limit=5)
    with pytest.raises(ValueError, match="^coset limit must be positive$"):
        cyclic_cover("14FF28", 3, limit=0)
    assert len(enumerations) == 2
    out = classify_filled_cover("14FF28", 3, limit=5)
    assert out["reason"] == "coset enumeration did not complete within 5 cosets"
    for n, record in ((1, rec), (3, out["cover"])):
        table = reference_covers.enumerated_table(ANALYSIS, n, 5)
        assert reference_covers.table_record(ANALYSIS, n, table) == record


def test_the_power_relator_is_never_built(monkeypatch):
    power = Meridian.relator.fget
    built = []

    def counted(self):
        built.append(self.exponent)
        return power(self)

    monkeypatch.setattr(Meridian, "relator", property(counted))
    cyclic_cover("14FF28", 51)
    assert built == []
    monkeypatch.delitem(DIHEDRAL_MAPS, "14FF28")
    with pytest.raises(ValueError, match="^no map onto D_inf is on record"):
        cyclic_cover("14FF28", 51)
    assert built == []


def test_cover_grid_matches_the_enumerated_table(monkeypatch):
    # n = 1-19 and limits 1-40: where G_n's enumeration completes within
    # the limit, the record is its table's; otherwise it is incomplete,
    # and a power beyond the limit is refused alike.  No call enumerates
    # G_n or builds a meridian relator.
    cases = []
    for n in range(1, 20):
        for limit in range(1, 41):
            try:
                table = reference_covers.enumerated_table(ANALYSIS, n, limit)
            except ValueError as exc:
                expected = ("ValueError", str(exc))
            else:
                expected = reference_covers.table_record(ANALYSIS, n, table)
            cases.append((n, limit, expected))

    def refuse(*args, **kwargs):
        raise AssertionError("G_n was enumerated or a meridian relator built")

    monkeypatch.setattr(filling_module, "CodeAnalysis", lambda code: ANALYSIS)
    monkeypatch.setattr(grouppres_module, "todd_coxeter", refuse)
    monkeypatch.setattr(Meridian, "relator", property(refuse))
    enumerate_ = grouppres_module._enumerate

    def certificate_only(pres, limit, subgroup=()):
        assert (limit, [str(w) for w in subgroup]) == (DEFAULT_COSET_LIMIT, ["c"])
        return enumerate_(pres, limit, subgroup)

    monkeypatch.setattr(filling_module, "_enumerate", certificate_only)
    outcomes = Counter()
    for n, limit, expected in cases:
        if isinstance(expected, tuple):
            with _refusal(expected[1]):
                cyclic_cover("14FF28", n, limit)
            with _refusal(expected[1]):
                classify_filled_cover("14FF28", n, limit)
            outcomes["refused"] += 1
            continue
        assert cyclic_cover("14FF28", n, limit) == expected, (n, limit)
        out = classify_filled_cover("14FF28", n, limit)
        assert out["cover"] == expected, (n, limit)
        if not expected.complete:
            reason = f"coset enumeration did not complete within {limit} cosets"
            assert out == {"cover": expected, "status": "unverified", "reason": reason}
        outcomes[expected.complete] += 1
    assert outcomes == {"refused": 171, True: 399, False: 190}


def test_classify_homeo_sphere():
    res = classify_homeo(2, 0, True, True)
    assert res.verdict == "S^4"
    assert not res.outside_scope
    with pytest.raises(ValueError, match="spin"):
        classify_homeo(2, 0, False, True)


def test_classify_homeo_spin_zero_signature():
    res = classify_homeo(6, 0, True, True)
    assert res.verdict == "#_2(S^2xS^2)"
    assert classify_homeo(26, 0, True, True).verdict == "#_12(S^2xS^2)"


def test_classify_homeo_spin_nonzero_signature():
    res = classify_homeo(26, 16, True, True)
    assert res.verdict == "#_2ME8#_4(S^2xS^2)"
    assert res.outside_scope


def test_classify_homeo_nonspin():
    for k in (1, 2, 3):
        res = classify_homeo(2 * k + 2, 0, False, True)
        assert res.verdict == f"#_{k}CP^2#_{k}CP^2bar"
    assert classify_homeo(6, 2, False, True).verdict == "#_3CP^2#_1CP^2bar"


def test_classify_homeo_odd_euler_characteristic():
    # chi = 2 + b2 and sigma = b2 mod 2: CP^2 has (chi, sigma) = (3, 1)
    assert classify_homeo(3, 1, False, True).verdict == "#_1CP^2#_0CP^2bar"
    assert classify_homeo(5, -1, False, True).verdict == "#_1CP^2#_2CP^2bar"
    with pytest.raises(ValueError, match="divisible by 16"):
        classify_homeo(3, 1, True, True)


def test_classify_homeo_impossible_invariants():
    with pytest.raises(ValueError, match="trivial fundamental group"):
        classify_homeo(6, 0, True, False)
    with pytest.raises(ValueError):
        classify_homeo(5, 0, True, True)  # sigma and chi of opposite parity
    with pytest.raises(ValueError):
        classify_homeo(6, 3, True, True)  # odd signature
    with pytest.raises(ValueError):
        classify_homeo(6, 8, True, True)  # |sigma| > chi - 2
    with pytest.raises(ValueError):
        classify_homeo(12, 8, True, True)  # spin needs sigma = 0 mod 16
    with pytest.raises(ValueError):
        classify_homeo(0, 0, True, True)


def test_classify_filled_cover_sphere():
    out = classify_filled_cover("14FF28", 1)
    assert out["status"] == "certified"
    assert out["simply_connected"]
    assert out["filled_cusps"] == 5
    assert out["verdict"].verdict == "S^4"
    assert out["cover"].chi == 2


def test_classify_filled_cover_conditional_even():
    out = classify_filled_cover("14FF28", 2)
    assert out["status"] == "conditional"
    assert out["simply_connected"]
    assert out["verdicts"]["if_spin"].verdict == "#_1(S^2xS^2)"
    assert out["verdicts"]["if_not_spin"].verdict == "#_1CP^2#_1CP^2bar"


def test_classify_filled_cover_odd():
    out = classify_filled_cover("14FF28", 3)
    assert out["status"] == "certified"
    assert out["certificate"] == "peripheral"
    assert out["filled_cusps"] == out["cover"].cusp_count == 13
    assert out["verdict"].verdict == "#_2(S^2xS^2)"


@pytest.mark.parametrize("n", [*range(1, 16), 51, 101])
def test_peripheral_certificate_matches_enumeration(n):
    # the enumeration certificate reaches index 1 exactly where the
    # peripheral one certifies; Tietze alone trivializes every filled
    # cover here (all 1224 generators at n = 51), so it enumerates ⟨ | ⟩
    new = classify_filled_cover("14FF28", n)
    old = reference_certificate.classify_by_enumeration("14FF28", n)
    assert old.pop("presentation") == {"generators": 0, "relators": 0}
    assert new.pop("certificate") == "peripheral"
    assert new == old
    assert new["status"] in ("certified", "conditional")


def test_peripheral_failure_names_the_generator(monkeypatch):
    # aG fixes cusp 1's vertex, but its stabilizer generator d conjugates
    # it to neither itself nor its inverse; phi sends aG to a reflection,
    # so the cover is refused before the peripheral check
    meridians = ((0, "Eg"), (1, "aG"), (2, "a"), (3, "k"), (4, "j"))
    monkeypatch.setitem(DEFAULT_MERIDIANS, "14FF28", meridians)
    assert _peripheral_failure(ANALYSIS, default_meridians("14FF28")) == (
        "generator d of cusp 1 conjugates meridian aG to neither itself nor its inverse"
    )
    with _refusal("the map onto D_inf sends meridian aG to (0, 1), not (1, 0)"):
        classify_filled_cover("14FF28", 1)
    # the enumeration does not reach index 1 on this filling either
    old = reference_certificate.classify_by_enumeration("14FF28", 1, limit=10**4)
    assert old["status"] == "unverified"
    # daB passes the certificate, and its generator aG breaks the condition
    meridians = ((0, "Eg"), (1, "daB"), (2, "a"), (3, "k"), (4, "j"))
    monkeypatch.setitem(DEFAULT_MERIDIANS, "14FF28", meridians)
    out = classify_filled_cover("14FF28", 1)
    assert out["cover"].complete
    assert out["status"] == "unverified"
    assert out["reason"] == (
        "generator aG of cusp 1 conjugates meridian daB to neither itself nor its inverse"
    )
    assert "simply_connected" not in out and "verdict" not in out
    # the condition is sufficient, not necessary: enumeration certifies
    # this filling simply connected
    old = reference_certificate.classify_by_enumeration("14FF28", 1, limit=10**4)
    assert old["status"] == "certified"


def _rebased_matrices():
    out = []
    for m in default_meridians("14FF28"):
        vclass = ANALYSIS.classes[m.cusp_index]
        matrix = PAIRINGS.evaluate(_rebased_meridian(PAIRINGS, vclass, m))
        out.append((vclass, matrix, matrix.inverse()))
    return out


REBASED = _rebased_matrices()


def test_rebased_meridians_walk_to_their_horospherical_actions():
    # the peripheral check composes each rebased default meridian's cube
    # map along the vertex path of its letters: the action of its matrix
    moves = cusp_module._cube_steps(PAIRINGS)
    for m, (vclass, matrix, _) in zip(default_meridians("14FF28"), REBASED):
        rep = PAIRINGS.cell.vertex_index[vclass.representative.coords]
        word = _rebased_meridian(PAIRINGS, vclass, m)
        assert cusp_module._loop_cube_map(PAIRINGS, moves, rep, word) == cube_map(
            horospherical_action(matrix, vclass.representative)
        ), str(m.word)


def test_peripheral_condition_needs_the_inverse():
    # 22 generators fix their cusp's meridian and 24 invert it, so a
    # check that accepted only p M p^-1 = M would certify no cover
    fixes = inverts = 0
    for vclass, matrix, inverse in REBASED:
        for word, _ in vclass.stabilizer:
            g = PAIRINGS.evaluate(word)
            conjugated = g @ matrix @ g.inverse()
            fixes += conjugated == matrix
            inverts += conjugated == inverse
    assert (fixes, inverts) == (22, 24)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_peripheral_condition_holds_on_the_stabilizer(data):
    # the elements that conjugate m to m^(+-1) form a subgroup: any word
    # in the stabilizer words, evaluated afresh, keeps m at m^(+-1)
    vclass, matrix, inverse = data.draw(st.sampled_from(REBASED))
    words = [w for w, _ in vclass.stabilizer]
    factors = data.draw(
        st.lists(st.tuples(st.sampled_from(words), st.sampled_from([1, -1])), max_size=8)
    )
    word = Word(())
    for w, sign in factors:
        word = word * (w if sign == 1 else w.inverse())
    p = PAIRINGS.evaluate(word)
    assert p @ matrix @ p.inverse() in (matrix, inverse)


# 14FF28, and two codes whose cusps have several flat types: 1428BD
# (FABAA) is orientable, E1BB86 (GFABH) is not
PERIPHERAL_CODES = ("14FF28", "1428BD", "E1BB86")
PERIPHERAL_ANALYSES = {code: CodeAnalysis(code) for code in PERIPHERAL_CODES}


def _peripheral_outcome(check, analysis, meridians):
    try:
        return check(analysis, meridians)
    except ValueError as exc:
        return ("ValueError", str(exc))


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_peripheral_failure_on_the_generators_matches_the_full_stabilizer(data):
    # meridians drawn as words in their cusp's stabilizer words: checking
    # the generators gives the same first failure as checking every
    # stabilizer element, or the same refusal of a trivial meridian
    analysis = PERIPHERAL_ANALYSES[data.draw(st.sampled_from(PERIPHERAL_CODES))]
    meridians = []
    for _ in range(data.draw(st.integers(1, 3))):
        vclass = data.draw(st.sampled_from(analysis.classes))
        words = [w for w, _ in vclass.stabilizer]
        factors = data.draw(
            st.lists(st.tuples(st.sampled_from(words), st.sampled_from([1, -1])), max_size=4)
        )
        word = Word(())
        for w, sign in factors:
            word = word * (w if sign == 1 else w.inverse())
        meridians.append(Meridian(vclass.index, word))
    assert _peripheral_outcome(_peripheral_failure, analysis, meridians) == (
        _peripheral_outcome(reference_certificate.peripheral_failure, analysis, meridians)
    )


def test_peripheral_failure_on_each_stabilizer_element():
    # every stabilizer element of 14FF28 as a meridian of its own cusp:
    # the generators fail exactly where the full stabilizer does
    outcomes = Counter()
    for vclass in ANALYSIS.classes:
        for word, _ in vclass.stabilizer:
            meridians = [Meridian(vclass.index, word)]
            failure = _peripheral_failure(ANALYSIS, meridians)
            assert failure == reference_certificate.peripheral_failure(ANALYSIS, meridians)
            outcomes[failure is None] += 1
    assert sum(outcomes.values()) == 46 and outcomes[False] > 0 and outcomes[True] > 0


def _other_character_tables() -> list:
    """The index-2 tables of 14FF28's nontrivial Z/2 characters other
    than the determinant, from every sign assignment to the letters."""
    presentation = ANALYSIS.presentation
    tables = []
    for bits in product((1, -1), repeat=len(presentation.generators)):
        signs = dict(zip(presentation.generators, bits))
        if signs == ANALYSIS.signs:
            continue
        try:
            tables.append(character_coset_table(presentation, signs))
        except ValueError:
            continue
    return tables


OTHER_CHARACTER_TABLES = _other_character_tables()


def test_other_characters_give_non_orientable_covers():
    # the kernel of any other character contains an orientation-reversing
    # element, so its double cover is not orientable and has no signature
    assert len(OTHER_CHARACTER_TABLES) == 62
    for table in OTHER_CHARACTER_TABLES:
        record = cover_record_from_table(ANALYSIS, table, "unknown")
        assert record.degree == 2
        assert record.orientable is False
        assert record.sigma is None
        assert record.degree_over_double_cover is None


@cache
def _pool_analyses() -> tuple:
    """The analyses of the 183 manifold codes of the benchmark pool."""
    pool = Path(__file__).parent.parent / "perfbench" / "data" / "pool.tsv"
    rows = [line.split() for line in pool.read_text().splitlines() if not line.startswith("#")]
    return tuple(CodeAnalysis(code) for code, cls, *_ in rows if cls == "M")


def _orientation_cases():
    for table in OTHER_CHARACTER_TABLES:
        yield "14FF28 other character", ANALYSIS, table
    for n in (*range(1, 16), 51):
        yield f"14FF28 cyclic {n}", *written_table("14FF28", n)
    for analysis in _pool_analyses():
        code = analysis.code
        # an orientable code has no orientation double cover
        if -1 in analysis.signs.values():
            table = character_coset_table(analysis.presentation, analysis.signs)
            yield f"{code} double cover", analysis, table


def test_orientation_walk_matches_the_schreier_signs():
    outcomes = Counter()
    for label, analysis, table in _orientation_cases():
        orientable = _orientable(analysis.signs, table)
        assert orientable == reference_certificate.schreier_orientable(
            analysis.signs, table
        ), label
        outcomes[label.split()[1], orientable] += 1
    # 181 of the 183 pool manifolds are non-orientable
    assert outcomes == {("other", False): 62, ("cyclic", True): 16, ("double", True): 181}


# The cover's record read off the map onto D_n, against the record of
# D_n's written table (which equals the enumerated table).

IMAGES = {x: DIHEDRAL_MAPS["14FF28"].get(x, (0, 0)) for x in "abcdefghijkl"}


@pytest.mark.parametrize("n", [*range(1, 201), 1001, 3001])
def test_record_off_the_map_is_the_table_record(n, enumerations):
    analysis, table = written_table("14FF28", n)
    expected = cover_record_from_table(analysis, table, "spin" if n % 2 else "unknown")
    record = cyclic_cover("14FF28", n)
    for field in fields(CoverRecord):
        assert getattr(record, field.name) == getattr(expected, field.name), field.name
    out = classify_filled_cover("14FF28", n)
    assert out["cover"] == expected
    assert out["filled_cusps"] == expected.cusp_count
    if n % 2:
        assert out["status"] == "certified"
        assert out["verdict"] == classify_homeo(expected.chi, expected.sigma, True, True)
    else:
        assert out["status"] == "conditional"
        assert out["verdicts"] == conditional_verdicts(expected.chi, expected.sigma)
    assert enumerations == [CERTIFICATE_ENUMERATION] * 3


class _Tracked:
    """An affine map with the word it is the action of: each product or
    inverse the construction takes is taken on both."""

    def __init__(self, affine, word):
        self.affine, self.word = affine, word

    def __matmul__(self, other):
        return _Tracked(self.affine @ other.affine, self.word * other.word)

    def inverse(self):
        return _Tracked(self.affine.inverse(), self.word.inverse())


# any images of the letters define a map of the free group into D_inf,
# under which a product of words takes the product of their values;
# these give reflections of several exponents
LETTER_IMAGES = {
    "phi": IMAGES,
    "ramp": {x: (i, i % 2) for i, x in enumerate("abcdefghijkl")},
    "squares": {x: (i * i - 5, i // 2 % 2) for i, x in enumerate("abcdefghijkl")},
}


@pytest.mark.parametrize("name", LETTER_IMAGES)
def test_rotation_half_carries_the_dihedral_value_of_each_word(name):
    # walked on every kept stabilizer element of each cusp: each Schreier
    # element is a rotation whose exponent is the dihedral image of its
    # word, and its affine map is that word's action; the walk on cube
    # maps gives the affine oracle's rotations
    images = LETTER_IMAGES[name]
    elements = 0
    for vclass in ANALYSIS.classes:
        rep = vclass.representative
        pairs = [
            (_Tracked(_affine(action), word), dihedral_image(images, word))
            for word, action in vclass.stabilizer
        ]
        identity = _Tracked(AffineMap.identity(), Word(()))
        rotations, reflected = reference_covers.rotation_half(pairs, identity)
        assert reflected == any(e for _, (_, e) in pairs)
        for x, k in rotations:
            assert dihedral_image(images, x.word) == (k, 0), (vclass.index, str(x.word))
            assert x.affine == horospherical_action(PAIRINGS.evaluate(x.word), rep)
        cubes = [(cube_map(x.affine), value) for x, value in pairs]
        assert _rotation_half(cubes) == (
            [(cube_map(x.affine), k) for x, k in rotations],
            reflected,
        ), vclass.index
        elements += len(rotations)
    if name == "phi":
        # every cusp has a reflection under phi: two parities, one tree edge
        assert elements == sum(2 * len(vc.stabilizer) - 1 for vc in ANALYSIS.classes)


def test_generating_half_gives_the_rotation_subgroup_of_the_stabilizer():
    # phi is a homomorphism on pi, so the generating half of each cusp's
    # stabilizer and the whole of it give the same P+ and psi(P+) = mZ
    for vclass in ANALYSIS.classes:
        found = []
        for elements in (vclass.generators, vclass.stabilizer):
            pairs = [(action, dihedral_image(IMAGES, word)) for word, action in elements]
            rotations, reflected = _rotation_half(pairs)
            m = gcd(*(k for _, k in rotations))
            lattice = FlatGroup(map(_affine, _kernel_generators(rotations, m, 7))).lattice
            found.append((reflected, m, lattice))
        assert found[0] == found[1], vclass.index


def test_record_helpers_on_cube_maps_are_the_affine_oracle():
    # every cusp of the pool manifolds, under maps onto D_inf with several
    # exponents: the rotations, Euclid's element and the kernel generators
    # composed as cube maps are the affine oracle's, element by element
    cusps = 0
    for analysis in _pool_analyses():
        for vclass in analysis.classes:
            for images in LETTER_IMAGES.values():
                pairs = [(g, dihedral_image(images, w)) for w, g in vclass.generators]
                affine = [(_affine(g), x) for g, x in pairs]
                rotations, reflected = reference_covers.rotation_half(affine, AffineMap.identity())
                cubes = [(cube_map(g), k) for g, k in rotations]
                assert _rotation_half(pairs) == (cubes, reflected)
                m = gcd(*(k for _, k in rotations))
                if m:
                    assert _affine(_euclid(cubes)) == reference_covers.euclid(rotations)
                for n in (6, 10**20 + 1):
                    assert [_affine(g) for g in _kernel_generators(cubes, m, n)] == (
                        reference_covers.kernel_generators(rotations, m, n)
                    ), (analysis.code, vclass.index, n)
                cusps += 1
    assert cusps == 928 * len(LETTER_IMAGES)


def test_orientation_character_is_the_table_double_cover():
    # the determinant as the map onto D_1 that sends each reversing letter
    # to s: the record is the one of its two-coset table
    covers = 0
    for analysis in _pool_analyses():
        if -1 not in analysis.signs.values():
            message = "^character is trivial; kernel has index 1, not 2$"
            with pytest.raises(ValueError, match=message):
                double_cover_record(analysis)
            continue
        table = character_coset_table(analysis.presentation, analysis.signs)
        spin = "spin" if DOUBLE_COVER_SPIN.get(analysis.code, False) else "unknown"
        expected = cover_record_from_table(analysis, table, spin)
        record = double_cover_record(analysis)
        assert record.cusp_lift_counts == expected.cusp_lift_counts, analysis.code
        assert record.cusp_types == expected.cusp_types, analysis.code
        assert record == expected, analysis.code
        covers += 1
    assert covers == 181


REFERENCE_MAPS = _reference_affine_data()
# G's glide with the translations (0, 1, 1) and (1, 0, 0), a subgroup of
# index 2: t is the first translation, and the glide in ker psi moves it,
# so the translation by v - Av is needed to reach (0, 0, 2)
SKEWED = [
    AffineMap.translation((0, 1, 1)),
    AffineMap.translation((1, 0, 0)),
    REFERENCE_MAPS["G"][3],
]

# (generators, psi on an element's shift): psi(p) = mu(shift), for a
# linear form mu that the holonomy fixes, is a homomorphism onto a
# subgroup of Z; the screw types cover orders 2, 3, 4 and 6, and the
# first case needs Euclid's algorithm (2 and 3, no generator at 1)
KERNEL_CASES = (
    ("A", lambda v: 2 * v[0] + 3 * v[1]),
    ("A", lambda v: 4 * v[2]),
    ("B", lambda v: 2 * v[2]),
    ("B", lambda v: 4 * v[2]),
    ("C", lambda v: 3 * v[2]),
    ("D", lambda v: 4 * v[2]),
    ("E", lambda v: 6 * v[2]),
    ("E", lambda v: 12 * v[2]),
    ("G", lambda v: 2 * v[0]),
    ("H", lambda v: 2 * v[0]),
    ("I", lambda v: 2 * v[0]),
    ("J", lambda v: 2 * v[0]),
    ("F", lambda v: 0),
    (SKEWED, lambda v: v[1]),
)


@pytest.mark.parametrize("case", range(len(KERNEL_CASES)))
def test_kernel_generators_give_the_stabilizer_of_the_orbit_walk(case):
    # psi^-1(nZ) is the stabilizer of 0 when each generator g adds psi(g)
    # on Z/n; the walk over that orbit is the table record's construction.
    # The affine oracle takes every case; the cube maps take the cases
    # whose linear parts are diagonal +-1, conjugated by x -> 2x so that
    # their shifts are integral
    maps, mu = KERNEL_CASES[case]
    generators = REFERENCE_MAPS[maps] if isinstance(maps, str) else maps
    rotations = [(g, int(Fraction(mu(g.shift)))) for g in generators]
    m = gcd(*(k for _, k in rotations))
    base = FlatGroup(generators)
    doubled = [AffineMap.of(g.linear, [2 * x for x in g.shift]) for g in generators]
    try:
        cubes = [(cube_map(g), k) for g, (_, k) in zip(doubled, rotations)]
    except AssertionError:
        cubes = None
    assert (cubes is None) == (maps in ("C", "D", "E", "H"))
    for n in range(1, 14):
        perms = [tuple((c + k) % n for c in range(n)) for _, k in rotations]
        size, expected = reference_covers.cusp_intersection_group(base, perms)
        assert size == n // gcd(m, n)
        group = FlatGroup(reference_covers.kernel_generators(rotations, m, n))
        assert group.lattice == expected.lattice, (case, n)
        assert group.holonomy == expected.holonomy, (case, n)
        assert group.invariants() == expected.invariants(), (case, n)
        if cubes is not None:
            size, expected = reference_covers.cusp_intersection_group(FlatGroup(doubled), perms)
            walked = _cusp_intersection_group([g for g, _ in cubes], perms)
            assert walked[0] == size and walked[1].generators == expected.generators, (case, n)
            group = FlatGroup(map(_affine, _kernel_generators(cubes, m, n)))
            assert group.lattice == expected.lattice, (case, n)
            assert group.holonomy == expected.holonomy, (case, n)
            assert group.invariants() == expected.invariants(), (case, n)


def test_orientability_reads_the_characters_of_d_n():
    # c -> r reverses orientation: the character (-1)^k of D_n, which
    # exists only for even n; e -> s reversing is the character (-1)^e
    images = {"a": (0, 0), "c": (1, 0), "e": (0, 1)}
    signs = {"a": 1, "c": -1, "e": 1}
    assert [_pulls_back(signs, images, n) for n in (1, 2, 3, 4)] == [False, True, False, True]
    signs = {"a": 1, "c": -1, "e": -1}
    assert [_pulls_back(signs, images, n) for n in (1, 2, 3, 4)] == [False, True, False, True]
    signs = {"a": 1, "c": 1, "e": -1}
    assert [_pulls_back(signs, images, n) for n in (1, 2, 3, 4)] == [True] * 4
    signs = {"a": -1, "c": 1, "e": 1}
    assert not any(_pulls_back(signs, images, n) for n in (1, 2, 3, 4))


def _count_products(monkeypatch) -> Counter:
    """Counts of the cube-map compositions of `filling` and `cusp`, and of
    the AffineMap products and inverses, made from now on."""
    calls = Counter()
    for owner, name in (
        (filling_module, "_compose"),
        (cusp_module, "_compose"),
        (AffineMap, "__matmul__"),
        (AffineMap, "inverse"),
    ):
        original = getattr(owner, name)

        def counted(*args, key=f"{owner.__name__}.{name}", original=original):
            calls[key] += 1
            return original(*args)

        monkeypatch.setattr(owner, name, counted)
    return calls


def test_record_off_the_map_takes_the_same_products_at_any_n(monkeypatch):
    analysis = ANALYSIS
    meridians = default_meridians("14FF28")
    images = _dihedral_certificate(analysis, meridians)
    assert images == IMAGES

    def refuse(*args, **kwargs):
        raise AssertionError("a coset table was built")

    monkeypatch.setattr(grouppres_module, "dihedral_table", refuse)
    monkeypatch.setattr(CosetTable, "permutation", refuse)
    # the whole op writes no table; the certificate's 2-coset table is n-free
    record = cyclic_cover("14FF28", 100001)
    assert record.cusp_lift_counts == (100001, 1, 100001, 100001, 100001)
    assert classify_filled_cover("14FF28", 100001)["verdict"].verdict == "#_100000(S^2xS^2)"
    monkeypatch.setattr(CosetTable, "__init__", refuse)
    calls = _count_products(monkeypatch)
    counts = []
    for n in (3, 51, 100001):
        calls.clear()
        record = cover_record_from_dihedral_map(analysis, images, n, "spin")
        assert record.cusp_lift_counts == (n, 1, n, n, n)
        assert record.cusp_types == "A" * (4 * n + 1)
        assert _peripheral_failure(analysis, meridians) is None
        counts.append(dict(calls))
    # the record and the peripheral check compose cube maps and form no
    # AffineMap product or inverse: 115 compositions for the record, 58
    # for the conjugations of the check and 12 along the five rebased
    # meridians' vertex paths
    assert counts[0] == counts[1] == counts[2] == {
        "hyper4.filling._compose": 115 + 58,
        "hyper4.cusp._compose": 12,
    }

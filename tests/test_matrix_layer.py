"""The exact matrix layer's fast paths against their oracles.

`SidePairingSet.evaluate` (one product per letter) is the reference for
the transversal matrices of a cover's Schreier elements; the actions of
those Lorentz Schreier elements are the reference for a cover's cusp
groups, which walk the base cusp group's affine maps instead; the map
between cube charts that `reference_walks.chart_map` solves through the
chart points of the cell's other ideal vertices is the reference for
`horospherical_action`, which reads the action off Lorentz products with
the vertex's three "+" face normals, and the w-frame action of
`reference_walks` raises its guards' messages too; a linear scan over the
pairings, applying each matrix to the side's vertices, is the reference
for the transition table and its vertex maps; orbit counting over
the cosets is the reference for a cover's face counts, which are d times
the base's, and for its cusp lift counts, which are d over the size of
coset 0's orbit.
"""

from collections import Counter
from fractions import Fraction
from functools import lru_cache
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_walks
from reference_certificate import orbit_partition
from reference_covers import written_table

from hyper4 import analysis as analysis_module
from hyper4 import filling as filling_module
from hyper4 import lorentz as lorentz_module
from hyper4.analysis import CodeAnalysis
from hyper4.cusp import _affine, cusp_flat_group, horospherical_action, vertex_classes
from hyper4.filling import (
    _cover_face_counts,
    _cusp_intersection_group,
    cover_record_from_table,
)
from hyper4.flatgroups import AffineMap, FlatGroup, StructuralError, classify_flat_group
from hyper4.grouppres import character_coset_table, orbit_edges, schreier_transversal
from hyper4.lorentz import IDENTITY, LorentzMatrix, LorentzVector
from hyper4.pairing import GENERATOR_LETTERS, build_side_pairings
from hyper4.words import Word

POOL = Path(__file__).parent.parent / "perfbench" / "data" / "pool.tsv"

# the first manifold codes of the pool, all non-orientable
POOL_MANIFOLDS = ("157CB4", "B948D6", "5C678D", "134DF8", "9CBA69")
# the first rejected codes of the pool: decodable, not manifolds
POOL_REJECTED = ("FF79DA", "39AB8C", "194FE5", "E4FDDD", "DC4BE8", "25DEFF")

CYCLIC_N = (1, 2, 3, 5, 13)
DOUBLE_COVER_CODES = ("14FF28",) + POOL_MANIFOLDS[:3]
ACTION_CODES = ("14FF28", "1428BD") + POOL_MANIFOLDS


def _reference_action(matrix: LorentzMatrix, vertex: LorentzVector) -> AffineMap:
    """The horospherical action as the map of the vertex's cube chart to
    itself, solved through the chart points of the other ideal vertices."""
    if matrix.apply(vertex) != vertex:
        raise ValueError("matrix does not fix the vertex")
    return reference_walks.chart_map(matrix, vertex, vertex)


def _cover_tables():
    for n in CYCLIC_N:
        yield f"14FF28 --cyclic {n}", *written_table("14FF28", n)
    for code in DOUBLE_COVER_CODES:
        analysis = CodeAnalysis(code)
        table = character_coset_table(analysis.presentation, analysis.signs)
        yield f"{code} double cover", analysis, table


@lru_cache(maxsize=None)
def _schreier_cases() -> tuple:
    """(label, analysis, vertex class, Schreier word, transversal matrix)
    for every non-tree edge of every cusp of every cover under test, over
    the cusp's generators as the cover walks them; the words are rebuilt
    here from the same breadth-first tree."""
    cases = []
    for label, analysis, table in _cover_tables():
        for vclass in analysis.classes:
            perms = [table.permutation(w) for w, _ in vclass.generators]
            trans = {0: Word(())}

            def steps(c, perms=perms):
                return ((i, perm[c]) for i, perm in enumerate(perms))

            matrices = [analysis.pairing_set.evaluate(w) for w, _ in vclass.generators]

            def matrix_steps(c, perms=perms, matrices=matrices):
                return ((i, m, perms[i][c]) for i, m in enumerate(matrices))

            for c, i, d, new in orbit_edges(0, steps):
                if new:
                    trans[d] = trans[c] * vclass.generators[i][0]
            for c, i, d, new, matrix in schreier_transversal(
                0, matrix_steps, IDENTITY, LorentzMatrix.__matmul__, LorentzMatrix.inverse
            ):
                if not new:
                    word = trans[c] * vclass.generators[i][0] * trans[d].inverse()
                    cases.append((label, analysis, vclass, word, matrix))
    return tuple(cases)


def test_transversal_products_match_evaluate():
    cases = _schreier_cases()
    assert {label for label, *_ in cases} == {label for label, *_ in _cover_tables()}
    for label, analysis, vclass, word, matrix in cases:
        assert analysis.pairing_set.evaluate(word) == matrix, (label, vclass.index, str(word))
        assert matrix.apply(vclass.representative) == vclass.representative


def _assert_same_action(matrix: LorentzMatrix, vertex: LorentzVector) -> None:
    fast = horospherical_action(matrix, vertex)
    assert fast == _reference_action(matrix, vertex)
    entries = [x for row in fast.linear for x in row] + list(fast.shift)
    # an int when integral, otherwise a Fraction that is not
    assert all(
        type(x) is int or (type(x) is Fraction and x.denominator > 1) for x in entries
    )


def test_horospherical_action_matches_reference_on_stabilizers():
    for code in ACTION_CODES:
        pairing_set = build_side_pairings(code)
        for vclass in vertex_classes(pairing_set):
            for word, _ in vclass.stabilizer:
                _assert_same_action(pairing_set.evaluate(word), vclass.representative)


def test_horospherical_action_matches_reference_on_schreier_elements():
    distinct = {
        (matrix, vclass.representative): None
        for _, _, vclass, _, matrix in _schreier_cases()
        if matrix != IDENTITY
    }
    assert distinct
    for matrix, vertex in distinct:
        _assert_same_action(matrix, vertex)


# both fix u = (1, 0, 0, 0, 1): the identity with z' = (-1, 0, 0, 0, 1)
# added to column 2 moves w off the horosphere directions, and
# diag(1, 2, 1, 1, 1) stretches one of them
_GUARD_VERTEX = LorentzVector((1, 0, 0, 0, 1))
_GUARD_CASES = (
    (
        LorentzMatrix(
            tuple(
                tuple(int(i == j) + (z if j == 2 else 0) for j in range(5))
                for i, z in enumerate((-1, 0, 0, 0, 1))
            )
        ),
        "the stabilizer matrix is not block triangular in the cusp basis",
    ),
    (
        LorentzMatrix(
            tuple(
                tuple(d if i == j else 0 for j in range(5))
                for i, d in enumerate((1, 2, 1, 1, 1))
            )
        ),
        "affine part does not preserve the cusp metric",
    ),
)


@pytest.mark.parametrize("matrix, message", _GUARD_CASES, ids=("triangular", "metric"))
def test_horospherical_action_guards_match_reference(matrix, message):
    assert matrix.apply(_GUARD_VERTEX) == _GUARD_VERTEX
    for action in (horospherical_action, reference_walks.w_frame_action):
        with pytest.raises(StructuralError) as excinfo:
            action(matrix, _GUARD_VERTEX)
        assert str(excinfo.value) == message, action.__name__


def _count_lorentz_arithmetic(monkeypatch) -> Counter:
    """Counts of the LorentzMatrix products and inverses made from now on:
    the checked `inverse`, and the unchecked J M^T J kernel wherever a
    module calls it (a checked inverse counts under both)."""
    calls = Counter()
    for name in ("__matmul__", "inverse"):
        original = getattr(LorentzMatrix, name)

        def counted(*args, name=name, original=original):
            calls[name] += 1
            return original(*args)

        monkeypatch.setattr(LorentzMatrix, name, counted)
    kernel = lorentz_module._unchecked_inverse

    def counted_kernel(m):
        calls["_unchecked_inverse"] += 1
        return kernel(m)

    monkeypatch.setattr(lorentz_module, "_unchecked_inverse", counted_kernel)
    return calls


def test_values_are_checked_only_where_they_enter(monkeypatch):
    # each vertex's cube chart is checked when the 24-cell is built, once
    # per process, with the cell's vertices and normals
    CodeAnalysis("14FF28")
    checks = Counter()
    for cls in (LorentzMatrix, LorentzVector):

        def counted(self, original=cls.__post_init__):
            checks[type(self).__name__] += 1
            original(self)

        monkeypatch.setattr(cls, "__post_init__", counted)
    at_decoding = Counter()
    arithmetic = []
    decode = analysis_module.build_side_pairings

    def decode_then_count(code):
        pairing_set = decode(code)
        at_decoding.update(checks)
        checks.clear()
        arithmetic.append(_count_lorentz_arithmetic(monkeypatch))
        return pairing_set

    monkeypatch.setattr(analysis_module, "build_side_pairings", decode_then_count)
    CodeAnalysis("14FF28")
    # decoding checks each letter's reflection, the target normal it is
    # built from, and its k-part
    assert at_decoding == {"LorentzMatrix": 24, "LorentzVector": 12}
    # the walks after it check nothing, and multiply or invert no
    # matrix: the vertex walk composes cube maps
    (calls,) = arithmetic
    assert calls == {}
    assert checks == {}


def test_code_analysis_product_budget(monkeypatch):
    calls = _count_lorentz_arithmetic(monkeypatch)
    word_product = Word.__mul__

    def counted(self, other):
        calls["Word.__mul__"] += 1
        return word_product(self, other)

    monkeypatch.setattr(Word, "__mul__", counted)
    CodeAnalysis("14FF28")
    # decoding: a product and a checked inverse per letter, whose J M^T J
    # kernel counts under both.  The ridge and edge gates count faces and
    # multiply nothing, and the vertex walk composes cube maps.  Word
    # products are made only for the 19 tree edges and, two each, for
    # the 46 stabilizer elements kept
    assert calls == {
        "__matmul__": 12,
        "inverse": 12,
        "_unchecked_inverse": 12,
        "Word.__mul__": 19 + 2 * 46,
    }


def test_cusp_flat_groups_do_no_lorentz_arithmetic(monkeypatch):
    classes = vertex_classes(build_side_pairings("14FF28"))
    calls = _count_lorentz_arithmetic(monkeypatch)
    assert [classify_flat_group(cusp_flat_group(vclass)) for vclass in classes] == ["G"] * 5
    assert calls == {}


def test_cover_cusp_groups_are_the_actions_of_the_lorentz_walk():
    # per cover and cusp: the distinct non-identity Schreier matrices, in order
    walks: dict = {}
    for label, _, vclass, _, matrix in _schreier_cases():
        if matrix != IDENTITY:
            walks.setdefault((label, vclass.index), {})[matrix] = None
    for label, analysis, table in _cover_tables():
        for vclass in analysis.classes:
            perms = [table.permutation(w) for w, _ in vclass.generators]
            orbit, group = _cusp_intersection_group([g for _, g in vclass.generators], perms)
            (zeros,) = [o for o in orbit_partition(perms, table.index) if o[0] == 0]
            assert orbit == len(zeros), (label, vclass.index)
            assert list(group.generators) == [
                horospherical_action(matrix, vclass.representative)
                for matrix in walks[label, vclass.index]
            ], (label, vclass.index)


def _lift_count_tables():
    for n in (*range(1, 16), 51):
        yield f"14FF28 --cyclic {n}", *written_table("14FF28", n)
    for code in _pool_manifold_codes():
        analysis = CodeAnalysis(code)
        # an orientable code has no orientation double cover
        if -1 in analysis.signs.values():
            table = character_coset_table(analysis.presentation, analysis.signs)
            yield f"{code} double cover", analysis, table


def test_lift_counts_are_the_orbit_counts():
    # both callers pass a regular table, so every orbit of a cusp group on
    # the cosets has the size of coset 0's, and the lift count d / |orbit|
    # is the number of orbits
    labels = []
    double_cover_orbit_sizes = set()
    for label, analysis, table in _lift_count_tables():
        labels.append(label)
        partitions = [
            orbit_partition([table.permutation(w) for w, _ in vclass.stabilizer], table.index)
            for vclass in analysis.classes
        ]
        assert all(len({len(o) for o in orbits}) == 1 for orbits in partitions), label
        record = cover_record_from_table(analysis, table, "unknown")
        assert record.cusp_lift_counts == tuple(map(len, partitions)), label
        if label.endswith("double cover"):
            double_cover_orbit_sizes.update(len(orbits[0]) for orbits in partitions)
    # 181 of the 183 pool manifolds are non-orientable, and the cusps of
    # their double covers have orbits of both sizes
    assert len(labels) == 16 + 181
    assert double_cover_orbit_sizes == {1, 2}


def _count_arithmetic(monkeypatch, owner, names) -> Counter:
    """Counts of the calls of owner's named functions made from now on."""
    calls = Counter()
    for name in names:
        original = getattr(owner, name)

        def counted(*args, name=name, original=original):
            calls[name] += 1
            return original(*args)

        monkeypatch.setattr(owner, name, counted)
    return calls


def test_cover_cusp_walk_inverts_each_generator_once(monkeypatch):
    # the transversal inverts a generator's cube map the first time a tree
    # edge uses it, not each of the tree edges: cusp 1 of the n = 51 cover
    # has 101
    analysis, table = written_table("14FF28", 51)
    calls = _count_arithmetic(monkeypatch, filling_module, ["_invert"])
    counts = []
    for vclass in analysis.classes:
        perms = [table.permutation(w) for w, _ in vclass.generators]
        calls.clear()
        orbit, _ = _cusp_intersection_group([g for _, g in vclass.generators], perms)
        assert calls["_invert"] <= len(vclass.generators)
        counts.append((orbit, calls["_invert"]))
    assert counts == [(2, 1), (102, 2), (2, 1), (2, 1), (2, 1)]


def test_flat_group_makes_no_affine_product_or_inverse(monkeypatch):
    # the holonomy walk carries only each transversal element's shift, so
    # no cusp group of the pool forms an AffineMap product or inverse
    calls = _count_arithmetic(monkeypatch, AffineMap, ["__matmul__", "inverse"])
    groups = 0
    for code in _pool_manifold_codes():
        for vclass in vertex_classes(build_side_pairings(code)):
            maps = [_affine(m) for _, m in vclass.generators]
            calls.clear()
            FlatGroup(maps)
            assert calls == {}, code
            groups += 1
    assert groups == 928


def test_cover_record_does_no_lorentz_arithmetic(monkeypatch):
    analysis, table = written_table("14FF28", 5)
    calls = _count_lorentz_arithmetic(monkeypatch)
    record = cover_record_from_table(analysis, table, "spin")
    assert record.cusp_types == "A" * 21
    assert calls == {}


def test_cover_face_counts_match_orbit_counting():
    # a ridge class lifts to one class per orbit of its cycle word on the
    # cosets; an edge class, with trivial stabilizer, to d classes
    for label, analysis, table in _cover_tables():
        d = table.index
        ridges = sum(
            len(orbit_partition([table.permutation(cycle.word)], d))
            for cycle in analysis.ridge_cycles
        )
        sides = d * len(analysis.pairing_set.pairings)
        edges = d * len(analysis.edge_orbits)
        assert _cover_face_counts(analysis, d) == {
            "cells": d,
            "sides": sides,
            "ridges": ridges,
            "edges": edges,
            "chi": d - sides + ridges - edges,
        }, label


def _scan_transition(pairing_set, side_label):
    """The transition found by a scan over the pairings, with its vertex
    map formed by applying the matrix to the side's vertices."""
    cell = pairing_set.cell
    for p in pairing_set.pairings:
        if side_label in (p.source.label, p.target.label):
            exp = 1 if p.source.label == side_label else -1
            g = p.matrix if exp == 1 else p.matrix.inverse()
            partner = p.target.label if exp == 1 else p.source.label
            vmap = {v: g.apply(v) for v in cell.vertices_of_side(side_label)}
            return p.letter, exp, g, partner, vmap
    raise KeyError(side_label)


def test_transition_matches_linear_scan():
    for code in ACTION_CODES + POOL_REJECTED:
        pairing_set = build_side_pairings(code)
        for side in pairing_set.cell.sides:
            assert pairing_set.transition(side.label) == _scan_transition(
                pairing_set, side.label
            ), (code, side.label)


letters = st.tuples(st.sampled_from(GENERATOR_LETTERS), st.sampled_from((1, -1)))


@settings(max_examples=200, deadline=None)
@given(
    code=st.sampled_from(ACTION_CODES + POOL_REJECTED),
    raw=st.lists(letters, max_size=12),
)
def test_evaluate_is_the_product_of_generators_and_inverses(code, raw):
    pairing_set = build_side_pairings(code)
    matrix = {p.letter: p.matrix for p in pairing_set.pairings}
    expected = IDENTITY
    for name, exp in raw:
        expected = expected @ (matrix[name] if exp == 1 else matrix[name].inverse())
    assert pairing_set.evaluate(Word.make(raw)) == expected


def _pool_manifold_codes() -> list[str]:
    return [
        line.split()[0]
        for line in POOL.read_text().splitlines()
        if not line.startswith("#") and line.split()[1] == "M"
    ]

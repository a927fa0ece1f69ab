"""Cusp cross-sections: vertex classes, horospherical actions, flat types."""

from fractions import Fraction
from pathlib import Path

import pytest

import reference_walks
from hyper4 import cusp as cusp_module
from hyper4.analysis import CodeAnalysis
from hyper4.cusp import (
    ETA_TABLE,
    cusp_flat_group,
    eta,
    horospherical_action,
    signature,
    vertex_classes,
)
from hyper4.cell24 import the_24_cell
from hyper4.flatgroups import AffineMap, FlatGroup, StructuralError, classify_flat_group
from hyper4.lorentz import LorentzVector
from hyper4.pairing import CODE_ALPHABET, CodeError, build_side_pairings
from hyper4.words import parse_word


PAIRINGS = build_side_pairings("14FF28")
CLASSES = vertex_classes(PAIRINGS)

# two census codes and the first 10 manifold codes of perfbench/data/pool.tsv;
# `SidePairingSet.evaluate` is the oracle for the matrices on them
ORACLE_CODES = (
    "14FF28", "1428BD", "157CB4", "B948D6", "5C678D", "134DF8",
    "9CBA69", "ABE3C6", "71A5CF", "39FD8C", "96453B", "E1BB86",
)


def test_class_sizes_and_representatives():
    assert [len(vc.members) for vc in CLASSES] == [16, 2, 2, 2, 2]
    assert [vc.representative.coords for vc in CLASSES] == [
        (-1, -1, -1, -1, 2),
        (-1, 0, 0, 0, 1),
        (0, -1, 0, 0, 1),
        (0, 0, -1, 0, 1),
        (0, 0, 0, -1, 1),
    ]


def test_classes_partition_the_vertices():
    seen = [v for vc in CLASSES for v in vc.members]
    assert len(seen) == 24 and len(set(seen)) == 24


def test_stabilizer_generator_counts():
    assert [len(vc.stabilizer) for vc in CLASSES] == [14, 8, 8, 8, 8]


@pytest.mark.parametrize("code", ORACLE_CODES)
def test_stabilizers_fix_their_representative(code):
    pairings = build_side_pairings(code)
    for vc in vertex_classes(pairings):
        for word, action in vc.stabilizer:
            matrix = pairings.evaluate(word)
            assert matrix.apply(vc.representative) == vc.representative
            assert reference_walks.chart_map(matrix, vc.representative, vc.representative) == (
                cusp_module._affine(action)
            )


@pytest.mark.parametrize("code", ORACLE_CODES)
def test_transversals_reach_members(code):
    pairings = build_side_pairings(code)
    for vc in vertex_classes(pairings):
        for member, tau in zip(vc.members, vc.transversals):
            assert pairings.evaluate(tau).apply(vc.representative) == member
        assert str(vc.transversals[vc.members.index(vc.representative)]) == "1"


def _pool_manifold_codes() -> list[str]:
    pool = Path(__file__).parent.parent / "perfbench" / "data" / "pool.tsv"
    rows = [line.split() for line in pool.read_text().splitlines() if not line.startswith("#")]
    return [code for code, cls, *_ in rows if cls == "M"]


def test_vertex_classes_match_the_word_and_matrix_walk():
    # the walk on matrices alone, with words only on tree edges and kept
    # stabilizer elements, against one carrying a (word, matrix) pair on
    # every edge, over every manifold code of the pool
    codes = _pool_manifold_codes()
    assert len(codes) == 183
    for code in codes:
        pairings = build_side_pairings(code)
        assert vertex_classes(pairings) == reference_walks.vertex_classes(pairings), code


def test_walk_maps_are_the_actions_of_the_stabilizer_words():
    # every kept stabilizer element of every pool manifold: the cube map
    # the walk composed is the action of its word's matrix, and the one
    # composed along the vertex path of the word's letters
    elements = 0
    cell = the_24_cell()
    for code in _pool_manifold_codes():
        pairings = build_side_pairings(code)
        moves = cusp_module._cube_steps(pairings)
        for vc in vertex_classes(pairings):
            rep = cell.vertex_index[vc.representative.coords]
            for word, action in vc.stabilizer:
                matrix = pairings.evaluate(word)
                affine = cusp_module._affine(action)
                assert horospherical_action(matrix, vc.representative) == affine, (code, str(word))
                assert cusp_module._loop_cube_map(pairings, moves, rep, word) == action
                elements += 1
    assert elements == 8300


def test_loop_cube_map_refuses_a_word_that_leaves_the_cell_vertices():
    # "c" is a loop at (1,0,0,0,1), one step down the chart's second axis;
    # c fixes that vertex, which lies on no side that G leaves through, so
    # the path of "Gc" leaves the cell's ideal vertices
    cell = the_24_cell()
    moves = cusp_module._cube_steps(PAIRINGS)
    vertex = cell.vertex_index[(1, 0, 0, 0, 1)]
    assert cusp_module._loop_cube_map(PAIRINGS, moves, vertex, parse_word("c")) == (
        1, 1, 1, 0, -1, 0
    )
    with pytest.raises(StructuralError) as excinfo:
        cusp_module._loop_cube_map(PAIRINGS, moves, vertex, parse_word("Gc"))
    assert str(excinfo.value) == "word Gc leaves the cell's ideal vertices"


def test_step_maps_are_the_chart_maps_of_the_letters():
    # every (position, character) entry that decodes, with F at the other
    # five positions, covers every letter of every decodable code: leaving
    # each vertex of a letter's source side, and of its target side, is
    # the letter's map between the two vertices' cube charts
    cell = the_24_cell()
    entries = steps = 0
    for position in range(1, 7):
        for ch in CODE_ALPHABET:
            code = "F" * (position - 1) + ch + "F" * (6 - position)
            try:
                pairings = build_side_pairings(code)
            except CodeError:
                continue
            entries += 1
            moves = cusp_module._cube_steps(pairings)
            for p in pairings.pairings[2 * position - 2 : 2 * position]:
                for side, g in ((p.source, p.matrix), (p.target, p.matrix.inverse())):
                    s = cell.side_index[side.label]
                    for v in cell.vertices_of_side(side.label):
                        d0, d1, d2, *shift = moves[s][cell.vertex_index[v.coords]]
                        step = AffineMap(((d0, 0, 0), (0, d1, 0), (0, 0, d2)), tuple(shift))
                        assert reference_walks.chart_map(g, v, g.apply(v)) == step, (code, side)
                        steps += 1
    assert (entries, steps) == (72, 72 * 2 * 2 * 6)


def test_both_charts_give_the_same_flat_invariants():
    # the cube chart and the w-frame of `reference_walks` are conjugate
    # charts of one horosphere, over every cusp of every pool manifold
    def invariants(group):
        return (group.holonomy_order, group.holonomy_type, group.orientable, group.h1)

    cusps = 0
    for code in _pool_manifold_codes():
        pairings = build_side_pairings(code)
        for vc in vertex_classes(pairings):
            frame = FlatGroup(
                reference_walks.w_frame_action(pairings.evaluate(w), vc.representative)
                for w, _ in vc.generators
            )
            group = cusp_flat_group(vc)
            assert invariants(group) == invariants(frame), code
            assert classify_flat_group(group) == classify_flat_group(frame), code
            cusps += 1
    assert cusps == 928


def test_generators_give_the_stabilizer_flat_group():
    # every stabilizer element that is not a generator is the inverse of
    # an earlier one, and the flat group on the generators is the one on
    # every element, over every manifold code of the pool
    def invariants(group):
        return (
            group.holonomy,
            group.lattice,
            group.h1,
            group.orientable,
            classify_flat_group(group),
        )

    counts = [0, 0]
    for code in _pool_manifold_codes():
        for vc in vertex_classes(build_side_pairings(code)):
            maps = [m for _, m in vc.stabilizer]
            assert set(vc.generators) <= set(vc.stabilizer), code
            for i, (word, action) in enumerate(vc.stabilizer):
                if (word, action) not in vc.generators:
                    assert cusp_module._invert(action) in maps[:i], (code, vc.index, str(word))

            def group(elements):
                return FlatGroup(cusp_module._affine(m) for _, m in elements)

            assert invariants(group(vc.generators)) == invariants(group(vc.stabilizer)), code
            counts[0] += len(vc.generators)
            counts[1] += len(vc.stabilizer)
    assert counts == [4150, 8300]


def test_code_analysis_acts_on_the_generators_alone(monkeypatch):
    # the flat groups take the walk's cube maps of the generators, and
    # read no action off a matrix
    calls = []
    action = cusp_module.horospherical_action

    def counted(matrix, vertex):
        calls.append(matrix)
        return action(matrix, vertex)

    monkeypatch.setattr(cusp_module, "horospherical_action", counted)
    analysis = CodeAnalysis("14FF28")
    assert [len(vc.generators) for vc in analysis.classes] == [7, 4, 4, 4, 4]
    assert [list(group.generators) for group, _ in analysis.cusps] == [
        [cusp_module._affine(m) for _, m in vc.generators] for vc in analysis.classes
    ]
    assert calls == []


# words known to generate each cusp cross-section group, with a vertex
# of the class each one fixes
PARABOLIC_WORDS = {
    0: ((1, 1, 1, 1, 2), ["Eg", "AKak", "AKJfc"]),
    1: ((1, 0, 0, 0, 1), ["c", "Ab", "Ag"]),
    2: ((0, 1, 0, 0, 1), ["a", "Ef", "Ei"]),
    3: ((0, 0, 1, 0, 1), ["k", "Cd", "Ce"]),
    4: ((0, 0, 0, 1, 1), ["GH", "Gk"]),
}


def test_parabolic_words_fix_class_members():
    for index, (coords, words) in PARABOLIC_WORDS.items():
        vertex = LorentzVector(coords)
        assert vertex in CLASSES[index].members
        for text in words:
            matrix = PAIRINGS.evaluate(parse_word(text))
            assert matrix.apply(vertex) == vertex, (index, text)
    # j stabilizes the representative corner of the last class
    vertex = LorentzVector((0, 0, 0, -1, 1))
    assert PAIRINGS.evaluate(parse_word("j")).apply(vertex) == vertex


def test_horospherical_action_of_c():
    # c translates the horosphere at (1,0,0,0,1): no rotation, one cube
    # step down the chart's second axis, the coordinate 3 of the cell
    vertex = LorentzVector((1, 0, 0, 0, 1))
    matrix = PAIRINGS.evaluate(parse_word("c"))
    act = horospherical_action(matrix, vertex)
    assert act == AffineMap(((1, 0, 0), (0, 1, 0), (0, 0, 1)), (0, -1, 0))
    assert act == reference_walks.chart_map(matrix, vertex, vertex)


def test_horospherical_action_requires_fixed_vertex():
    vertex = LorentzVector((1, 0, 0, 0, 1))
    matrix = PAIRINGS.evaluate(parse_word("a"))  # a does not fix this vertex
    with pytest.raises(ValueError):
        horospherical_action(matrix, vertex)


def test_all_cusps_have_type_g():
    assert [classify_flat_group(cusp_flat_group(vc)) for vc in CLASSES] == ["G"] * 5


def test_cusp_flat_groups_match_reports():
    for vc in CLASSES:
        group = cusp_flat_group(vc)
        assert group.invariants() == (False, "Z2", (2, (2,)))


def test_eta_values():
    assert eta("A") == 0
    assert eta("B") == 0
    assert eta("C") == Fraction(-2, 3)
    assert eta("D") == -1
    assert eta("E") == Fraction(-4, 3)
    assert eta("F") == 0
    assert set(ETA_TABLE) == set("ABCDEF")


def test_eta_undefined_for_nonorientable_types():
    for tag in "GHIJ":
        with pytest.raises(ValueError):
            eta(tag)


def test_signature_sums():
    assert signature(["A"] * 5) == 0
    assert signature(["C", "C", "C"]) == -2
    assert signature(["D", "D"]) == -2
    assert signature(["G"]) is None  # no eta invariant: no signature
    with pytest.raises(ValueError):
        signature(["C"])  # -2/3 alone is not an integer

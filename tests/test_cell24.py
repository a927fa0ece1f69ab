"""Combinatorics of the ideal 24-cell."""

from hyper4.cell24 import SIDE_LABELS, the_24_cell
from hyper4.lorentz import lorentz_product


CELL = the_24_cell()
CENTERS = {s.label: s.center for s in CELL.sides}


def test_counts():
    assert len(CELL.sides) == 24
    assert len(CELL.vertices) == 24
    assert len(CELL.ridges) == 96
    assert len(CELL.edges) == 96


def test_side_labels_cover():
    assert len(SIDE_LABELS) == 24
    assert {s.label for s in CELL.sides} == set(SIDE_LABELS)


def test_centers_are_unit_spacelike():
    for side in CELL.sides:
        c = side.center
        assert sorted(abs(x) for x in c) == [0, 0, 1, 1]
        assert lorentz_product(side.normal.coords, side.normal.coords) == 1


def test_vertices_are_light():
    for v in CELL.vertices:
        assert v.is_light()
        assert v.coords[4] > 0
    singles = [v for v in CELL.vertices if v.coords[4] == 1]
    halves = [v for v in CELL.vertices if v.coords[4] == 2]
    assert len(singles) == 8 and len(halves) == 16


def test_incidence_degrees():
    for side in CELL.sides:
        assert len(CELL.vertices_of_side(side.label)) == 6
    for v in CELL.vertices:
        assert len(CELL.sides_of_vertex(v)) == 6


def test_ridges_pair_adjacent_sides():
    for ridge in CELL.ridges:
        a, b = ridge.sides
        ca = CENTERS[a]
        cb = CENTERS[b]
        # adjacent side centers meet at inner product 1
        assert sum(x * y for x, y in zip(ca, cb)) == 1
        assert len(ridge.vertices) == 3
        for v in ridge.vertices:
            assert a in CELL.sides_of_vertex(v)
            assert b in CELL.sides_of_vertex(v)


def test_edges_join_three_sides():
    for edge in CELL.edges:
        assert len(edge.sides) == 3
        assert len(edge.vertices) == 2
        for v in edge.vertices:
            for label in edge.sides:
                assert label in CELL.sides_of_vertex(v)


def test_side_lookup_by_center():
    side = CELL.by_center[(1, 0, 0, 1)]
    assert side.label == "G"


def test_index_tables_follow_the_vector_tables():
    assert [CELL.vertex_index[v.coords] for v in CELL.vertices] == list(range(24))
    assert [CELL.side_index[s.label] for s in CELL.sides] == list(range(24))
    for i, v in enumerate(CELL.vertices):
        labels = tuple(CELL.sides[s].label for s in CELL.vertex_sides[i])
        assert labels == CELL.sides_of_vertex(v)
    for k, edge in enumerate(CELL.edges):
        i, j = CELL.edge_ends[k]
        assert (CELL.vertices[i], CELL.vertices[j]) == edge.vertices
        assert tuple(CELL.sides[s].label for s in CELL.edge_sides[k]) == edge.sides
        assert CELL.edge_by_ends[i, j] == CELL.edge_by_ends[j, i] == k
    assert len(CELL.edge_by_ends) == 2 * len(CELL.edges)

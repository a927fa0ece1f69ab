"""Combinatorics of the ideal 24-cell."""

from itertools import combinations, permutations, product

import pytest

from hyper4.cell24 import SIDE_LABELS, the_24_cell
from hyper4.lorentz import lorentz_product


CELL = the_24_cell()


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
    for s, on in enumerate(CELL.side_vertices):
        assert len(on) == 6
        assert all(s in CELL.vertex_sides[v] for v in on)
    for v, on in enumerate(CELL.vertex_sides):
        assert len(on) == 6
        assert all(v in CELL.side_vertices[s] for s in on)


def test_ridges_pair_adjacent_sides():
    for ridge in CELL.ridges:
        a, b = ridge.sides
        ca = CELL.sides[a].center
        cb = CELL.sides[b].center
        # adjacent side centers meet at inner product 1
        assert sum(x * y for x, y in zip(ca, cb)) == 1
        assert len(ridge.vertices) == 3
        for v in ridge.vertices:
            assert a in CELL.vertex_sides[v]
            assert b in CELL.vertex_sides[v]


def test_edges_join_three_sides():
    for edge in CELL.edges:
        assert len(edge.sides) == 3
        assert len(edge.vertices) == 2
        for v in edge.vertices:
            for s in edge.sides:
                assert s in CELL.vertex_sides[v]


def test_side_lookup_by_center():
    side = CELL.by_center[(1, 0, 0, 1)]
    assert side.label == "G"


def test_index_tables_follow_the_vector_tables():
    # every index table against the geometry: v lies on the side with
    # normal n when <v, n> = 0, a ridge is two orthogonal sides and the
    # vertices on both, an edge two vertices and the sides they share,
    # which are exactly three
    normals = [side.normal.coords for side in CELL.sides]
    points = [v.coords for v in CELL.vertices]
    assert [CELL.vertex_index[u] for u in points] == list(range(24))
    assert [CELL.side_index[s.label] for s in CELL.sides] == list(range(24))
    on = [tuple(v for v, u in enumerate(points) if lorentz_product(u, n) == 0) for n in normals]
    assert CELL.side_vertices == tuple(on)
    assert CELL.vertex_sides == tuple(
        tuple(s for s, n in enumerate(normals) if lorentz_product(u, n) == 0) for u in points
    )
    ridges = [
        ((s, t), tuple(v for v in on[s] if v in on[t]))
        for s, t in combinations(range(24), 2)
        if lorentz_product(normals[s], normals[t]) == 0
    ]
    assert [(r.sides, r.vertices) for r in CELL.ridges] == ridges
    assert all(len(vertices) == 3 for _, vertices in ridges)
    for k, ridge in enumerate(CELL.ridges):
        for key in permutations(ridge.vertices):
            assert CELL.ridge_by_vertices[key] == k
    assert len(CELL.ridge_by_vertices) == 6 * 96
    shared = {
        (i, j): tuple(s for s in range(24) if i in on[s] and j in on[s])
        for i, j in combinations(range(24), 2)
    }
    assert max(map(len, shared.values())) == 3
    edges = [(ends, sides) for ends, sides in shared.items() if len(sides) == 3]
    assert [(e.vertices, e.sides) for e in CELL.edges] == edges
    for k, edge in enumerate(CELL.edges):
        i, j = edge.vertices
        assert CELL.edge_by_ends[i, j] == CELL.edge_by_ends[j, i] == k
    assert len(CELL.edge_by_ends) == 2 * len(CELL.edges)


def test_support_quadruples_are_the_scan_over_the_sides():
    order = [(1, 1), (1, -1), (-1, 1), (-1, -1)]
    for p, q in combinations(range(1, 5), 2):
        quad = [side for side in CELL.sides if side.support == (p, q)]
        quad.sort(key=lambda side: order.index(side.signs))
        assert CELL.sides_with_support(p, q) == tuple(quad)
    with pytest.raises(ValueError, match=r"^no side quadruple with support \(2, 1\)$"):
        CELL.sides_with_support(2, 1)


def test_cube_chart_of_every_vertex():
    # at each of the 24 vertices: one side per axis and sign; opposite
    # sides meet at product -1 and their normals sum to (2 / u5) u, and
    # other sides are orthogonal
    for i, v in enumerate(CELL.vertices):
        u = v.coords
        faces = CELL.vertex_faces[i]
        assert set(faces) == set(CELL.vertex_sides[i])
        assert sorted(faces.values()) == [(a, s) for a in range(3) for s in (-1, 1)]
        normal = {face: CELL.sides[s].normal.coords for s, face in faces.items()}
        for (a, s), (b, t) in combinations(normal, 2):
            product = lorentz_product(normal[a, s], normal[b, t])
            assert product == (-1 if a == b else 0), (u, a, b)
        for a in range(3):
            total = [x + y for x, y in zip(normal[a, 1], normal[a, -1])]
            assert total == [2 // u[4] * c for c in u]


def test_k_parts_act_on_the_charts_by_their_sign_maps():
    # diag(k, 1) carries the side with center c through v to the side
    # with center k c through k v; in the charts that is the sign map
    # x_a -> d_a x_a, d the k_j with v_j = 0 at (+-e_i, 1), all +1 at the 16
    for k in product((1, -1), repeat=4):
        for i, v in enumerate(CELL.vertices):
            image = CELL.vertex_index[tuple(x * y for x, y in zip(k + (1,), v.coords))]
            signs = [x for x, c in zip(k, v.coords) if c == 0] or [1, 1, 1]
            for s, (a, sign) in CELL.vertex_faces[i].items():
                center = tuple(x * y for x, y in zip(k, CELL.sides[s].center))
                moved = CELL.side_index[CELL.by_center[center].label]
                assert CELL.vertex_faces[image][moved] == (a, signs[a] * sign), (k, v, s)

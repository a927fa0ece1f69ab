"""Combinatorics of the ideal 24-cell in Minkowski 5-space.

The cell is bounded by 24 hyperplanes whose unit space-like normals are
(c, 1) for the 24 centers c with exactly two entries equal to +-1.  Its
24 ideal vertices are light rays: eight of the form (+-e_i, 1) and
sixteen of the form (+-1, +-1, +-1, +-1, 2).  Ridges (codimension 2)
are orthogonal side pairs; edges (codimension 3) are vertex pairs lying
on exactly three common sides.

Besides its faces, the complex keeps integer tables for the edge and
vertex walks: each vertex's index and its side indices, each edge's end
and side indices, and the edge at a pair of end indices.  A walk then
moves a face by a side's vertex permutation and looks its image up by
integers, with no `LorentzVector` hashed.  Each ideal vertex's link is a
cube, and its chart, checked here, names each side's face (axis, sign).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from itertools import combinations, product
from operator import add

from .lorentz import LorentzMatrix, LorentzVector, lorentz_product, reflection_matrix

__all__ = [
    "Side",
    "Ridge",
    "Edge",
    "Cell24Complex",
    "SIDE_LABELS",
    "the_24_cell",
]


# Fixed labeling of the 24 sides by their centers.  Unprimed/primed
# letters pair up sides with the same support; the list is sorted by
# label, which is the canonical side order used everywhere.
_LABEL_CENTERS: tuple[tuple[str, tuple[int, int, int, int]], ...] = (
    ("A", (1, 1, 0, 0)),
    ("A'", (-1, 1, 0, 0)),
    ("B", (1, -1, 0, 0)),
    ("B'", (-1, -1, 0, 0)),
    ("C", (1, 0, 1, 0)),
    ("C'", (1, 0, -1, 0)),
    ("D", (-1, 0, 1, 0)),
    ("D'", (-1, 0, -1, 0)),
    ("E", (0, 1, 1, 0)),
    ("E'", (0, -1, -1, 0)),
    ("F", (0, 1, -1, 0)),
    ("F'", (0, -1, 1, 0)),
    ("G", (1, 0, 0, 1)),
    ("G'", (-1, 0, 0, -1)),
    ("H", (1, 0, 0, -1)),
    ("H'", (-1, 0, 0, 1)),
    ("I", (0, 1, 0, 1)),
    ("I'", (0, -1, 0, 1)),
    ("J", (0, 1, 0, -1)),
    ("J'", (0, -1, 0, -1)),
    ("K", (0, 0, 1, 1)),
    ("K'", (0, 0, 1, -1)),
    ("L", (0, 0, -1, 1)),
    ("L'", (0, 0, -1, -1)),
)

SIDE_LABELS: tuple[str, ...] = tuple(label for label, _ in _LABEL_CENTERS)


@dataclass(frozen=True)
class Side:
    label: str
    center: tuple[int, int, int, int]

    @property
    def normal(self) -> LorentzVector:
        return LorentzVector(self.center + (1,))

    @property
    def support(self) -> tuple[int, int]:
        """1-based positions of the two nonzero center entries."""
        return tuple(i + 1 for i, c in enumerate(self.center) if c != 0)  # type: ignore[return-value]

    @property
    def signs(self) -> tuple[int, int]:
        return tuple(c for c in self.center if c != 0)  # type: ignore[return-value]

    def reflection(self) -> LorentzMatrix:
        return reflection_matrix(self.normal)


@dataclass(frozen=True)
class Ridge:
    """Codimension-2 face: intersection of two orthogonal sides."""

    sides: tuple[str, str]
    vertices: tuple[LorentzVector, LorentzVector, LorentzVector]


@dataclass(frozen=True)
class Edge:
    """Codimension-3 face: two ideal vertices on exactly three sides."""

    vertices: tuple[LorentzVector, LorentzVector]
    sides: tuple[str, str, str]


def _all_lights() -> tuple[LorentzVector, ...]:
    lights = []
    for i in range(4):
        for s in (1, -1):
            coords = [0, 0, 0, 0, 1]
            coords[i] = s
            lights.append(LorentzVector(tuple(coords)))
    for signs in product((1, -1), repeat=4):
        lights.append(LorentzVector(signs + (2,)))
    return tuple(sorted(lights, key=lambda v: v.coords))


def _cube_chart(u: tuple[int, ...], sides) -> dict[int, tuple[int, int]]:
    """The face (axis, sign) at the vertex u of each of its sides, given
    as (index, center) pairs.  At (+-e_i, 1) axis a is the a-th
    coordinate j != i, and a side's sign is its center's entry j.  At
    (+-1, +-1, +-1, +-1, 2) axis a is the pairing {1, a + 2} | rest, and
    the side through coordinate 1 has sign +1."""
    axes = [j for j in range(4) if not u[j]]
    faces = {}
    for s, c in sides:
        p, q = (j for j in range(4) if c[j])
        j = q if u[p] else p
        # at the 16, a support {0, q} is on axis q - 1; one without 0 is on
        # the axis of the coordinate it leaves out, 6 - p - q
        faces[s] = (axes.index(j), c[j]) if axes else (q - 1, 1) if p == 0 else (5 - p - q, -1)
    return faces


class Cell24Complex:
    """Face lattice of the ideal 24-cell, with lookup tables.

    Build via :func:`the_24_cell`; construction checks all the expected
    incidence counts.
    """

    def __init__(self) -> None:
        self.sides: tuple[Side, ...] = tuple(Side(lbl, c) for lbl, c in _LABEL_CENTERS)
        self.by_center: dict[tuple[int, int, int, int], Side] = {
            s.center: s for s in self.sides
        }
        self.vertices: tuple[LorentzVector, ...] = _all_lights()

        if len(self.sides) != 24 or len(self.vertices) != 24:
            raise AssertionError("24-cell must have 24 sides and 24 ideal vertices")
        for s in self.sides:
            if s.normal.norm() != 1:
                raise AssertionError(f"side {s.label} normal is not unit space-like")
        for v in self.vertices:
            if not v.is_light():
                raise AssertionError(f"vertex {v} is not a light vector")

        self._incidence: dict[str, tuple[LorentzVector, ...]] = {}
        self._sides_of_vertex: dict[LorentzVector, tuple[str, ...]] = {
            v: () for v in self.vertices
        }
        for s in self.sides:
            on = tuple(v for v in self.vertices if v.dot(s.normal) == 0)
            if len(on) != 6:
                raise AssertionError(f"side {s.label} must contain 6 ideal vertices")
            self._incidence[s.label] = on
            for v in on:
                self._sides_of_vertex[v] = self._sides_of_vertex[v] + (s.label,)
        for v, labels in self._sides_of_vertex.items():
            if len(labels) != 6:
                raise AssertionError(f"vertex {v} must lie on 6 sides")

        ridges = []
        for s1, s2 in combinations(self.sides, 2):
            if s1.normal.dot(s2.normal) != 0:
                continue
            common = tuple(v for v in self._incidence[s1.label] if v.dot(s2.normal) == 0)
            if len(common) != 3:
                raise AssertionError(f"ridge {s1.label},{s2.label} must carry 3 vertices")
            ridges.append(Ridge(tuple(sorted((s1.label, s2.label))), common))
        self.ridges: tuple[Ridge, ...] = tuple(
            sorted(ridges, key=lambda r: r.sides)
        )
        if len(self.ridges) != 96:
            raise AssertionError("24-cell must have 96 ridges")
        self.ridge_by_vertices: dict[frozenset[LorentzVector], Ridge] = {
            frozenset(r.vertices): r for r in self.ridges
        }
        if len(self.ridge_by_vertices) != 96:
            raise AssertionError("ridge vertex triples must be distinct")

        edges = []
        for v1, v2 in combinations(self.vertices, 2):
            common = tuple(
                lbl
                for lbl in self._sides_of_vertex[v1]
                if lbl in set(self._sides_of_vertex[v2])
            )
            if len(common) == 3:
                edges.append(Edge((v1, v2), tuple(sorted(common))))
            elif len(common) > 3:
                raise AssertionError("vertex pair on more than 3 sides")
        self.edges: tuple[Edge, ...] = tuple(
            sorted(edges, key=lambda e: (e.vertices[0].coords, e.vertices[1].coords))
        )
        if len(self.edges) != 96:
            raise AssertionError("24-cell must have 96 edges")
        self.edge_by_vertices: dict[frozenset[LorentzVector], Edge] = {
            frozenset(e.vertices): e for e in self.edges
        }

        # the integer tables of the edge and vertex walks: a vertex by its
        # index in `vertices` (coordinate order), a side by its index in
        # `sides` (label order), an edge by its index in `edges`.  Vertex
        # indices are keyed by coordinates, whose tuples hash in C.
        self.vertex_index: dict[tuple[int, ...], int] = {
            v.coords: i for i, v in enumerate(self.vertices)
        }
        self.side_index: dict[str, int] = {s.label: i for i, s in enumerate(self.sides)}
        side_index = self.side_index
        self.vertex_sides: tuple[tuple[int, ...], ...] = tuple(
            tuple(side_index[label] for label in self.sides_of_vertex(v))
            for v in self.vertices
        )
        # each vertex's cube chart x_a = 1/2 + <x, n_a> / (lam <-x, u>) on
        # the light cone, n_a the normal of face (a, +1), puts face (a, s)
        # at x_a = s/2: opposite normals sum to lam u, lam = 1 or 2, and
        # adjacent ones are orthogonal
        self.vertex_faces: tuple[dict[int, tuple[int, int]], ...] = tuple(
            _cube_chart(v.coords, [(s, self.sides[s].center) for s in sides])
            for v, sides in zip(self.vertices, self.vertex_sides)
        )
        for v, faces in zip(self.vertices, self.vertex_faces):
            normal = {face: self.sides[s].normal.coords for s, face in faces.items()}
            if sorted(normal) != [(a, s) for a in range(3) for s in (-1, 1)]:
                raise AssertionError(f"the sides of vertex {v} are not the faces of a cube")
            sums = (v.coords, tuple(2 * c for c in v.coords))
            for (a, x), (b, y) in combinations(normal.items(), 2):
                holds = tuple(map(add, x, y)) in sums if a[0] == b[0] else not lorentz_product(x, y)
                if not holds:
                    raise AssertionError(f"faces {a} and {b} at {v} are not opposite or orthogonal")
        self.edge_ends: tuple[tuple[int, int], ...] = tuple(
            (self.vertex_index[e.vertices[0].coords], self.vertex_index[e.vertices[1].coords])
            for e in self.edges
        )
        self.edge_sides: tuple[tuple[int, int, int], ...] = tuple(
            tuple(side_index[label] for label in e.sides)
            for e in self.edges
        )
        # either order of an edge's ends looks up the edge
        self.edge_by_ends: dict[tuple[int, int], int] = {}
        for k, (i, j) in enumerate(self.edge_ends):
            self.edge_by_ends[i, j] = self.edge_by_ends[j, i] = k

    def vertices_of_side(self, label: str) -> tuple[LorentzVector, ...]:
        return self._incidence[label]

    def sides_of_vertex(self, vertex: LorentzVector) -> tuple[str, ...]:
        return self._sides_of_vertex[vertex]

    def sides_with_support(self, p: int, q: int) -> tuple[Side, Side, Side, Side]:
        """The four sides with nonzero center entries at 1-based p < q.

        Ordered by sign pattern: (+,+), (+,-), (-,+), (-,-).
        """
        order = {(1, 1): 0, (1, -1): 1, (-1, 1): 2, (-1, -1): 3}
        found: list[Side | None] = [None] * 4
        for s in self.sides:
            if s.support == (p, q):
                found[order[s.signs]] = s
        if any(s is None for s in found):
            raise ValueError(f"no side quadruple with support ({p}, {q})")
        return tuple(found)  # type: ignore[return-value]


@cache
def the_24_cell() -> Cell24Complex:
    return Cell24Complex()

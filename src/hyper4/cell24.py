"""Combinatorics of the ideal 24-cell in Minkowski 5-space.

The cell is bounded by 24 hyperplanes whose unit space-like normals are
(c, 1) for the 24 centers c with exactly two entries equal to +-1.  Its
24 ideal vertices are light rays: eight of the form (+-e_i, 1) and
sixteen of the form (+-1, +-1, +-1, +-1, 2).  Ridges (codimension 2)
are orthogonal side pairs; edges (codimension 3) are vertex pairs lying
on exactly three common sides.

Every face is named by integers, in increasing order: a side by its
index in `sides` (label order), a vertex by its index in `vertices`
(coordinate order), a ridge by its 2 sides and 3 vertices, an edge by
its 2 vertices and 3 sides.  Each incidence is one table: `side_vertices`,
`vertex_sides`, `ridge_by_vertices` and `edge_by_ends`.  A walk moves a
face by a side's vertex permutation and looks its image up by integers,
with no `LorentzVector` hashed.  Each ideal vertex's link is a cube, and
its chart, checked here, names each side's face (axis, sign).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from itertools import combinations, permutations, product
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
    """Codimension-2 face: two orthogonal sides and their 3 common vertices."""

    sides: tuple[int, int]
    vertices: tuple[int, int, int]


@dataclass(frozen=True)
class Edge:
    """Codimension-3 face: two ideal vertices on exactly three sides."""

    vertices: tuple[int, int]
    sides: tuple[int, int, int]


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
        self.by_center: dict[tuple[int, int, int, int], Side] = {s.center: s for s in self.sides}
        self.vertices: tuple[LorentzVector, ...] = _all_lights()

        if len(self.sides) != 24 or len(self.vertices) != 24:
            raise AssertionError("24-cell must have 24 sides and 24 ideal vertices")
        for s in self.sides:
            if s.normal.norm() != 1:
                raise AssertionError(f"side {s.label} normal is not unit space-like")
        for v in self.vertices:
            if not v.is_light():
                raise AssertionError(f"vertex {v} is not a light vector")

        # a vertex by its index in `vertices` (coordinate order), keyed by
        # coordinates, whose tuples hash in C; a side by its index in
        # `sides` (label order)
        self.vertex_index: dict[tuple[int, ...], int] = {
            v.coords: i for i, v in enumerate(self.vertices)
        }
        self.side_index: dict[str, int] = {s.label: i for i, s in enumerate(self.sides)}
        self.side_vertices: tuple[tuple[int, ...], ...] = tuple(
            tuple(i for i, v in enumerate(self.vertices) if v.dot(s.normal) == 0)
            for s in self.sides
        )
        self.vertex_sides: tuple[tuple[int, ...], ...] = tuple(
            tuple(s for s, on in enumerate(self.side_vertices) if i in on)
            for i in range(len(self.vertices))
        )
        if {len(on) for on in self.side_vertices + self.vertex_sides} != {6}:
            raise AssertionError("each side must carry 6 ideal vertices, and each vertex 6 sides")

        # index pairs come in increasing order, so both face lists are sorted
        ridges = []
        for s, t in combinations(range(len(self.sides)), 2):
            if self.sides[s].normal.dot(self.sides[t].normal) != 0:
                continue
            common = tuple(v for v in self.side_vertices[s] if v in self.side_vertices[t])
            if len(common) != 3:
                raise AssertionError(
                    f"ridge {self.sides[s].label},{self.sides[t].label} must carry 3 vertices"
                )
            ridges.append(Ridge((s, t), common))
        self.ridges: tuple[Ridge, ...] = tuple(ridges)
        if len(self.ridges) != 96:
            raise AssertionError("24-cell must have 96 ridges")
        # any order of a ridge's vertices looks up the ridge's index
        self.ridge_by_vertices: dict[tuple[int, ...], int] = {
            key: k for k, r in enumerate(self.ridges) for key in permutations(r.vertices)
        }
        if len(self.ridge_by_vertices) != 6 * len(self.ridges):
            raise AssertionError("ridge vertex triples must be distinct")

        edges = []
        for i, j in combinations(range(len(self.vertices)), 2):
            common = tuple(s for s in self.vertex_sides[i] if s in self.vertex_sides[j])
            if len(common) == 3:
                edges.append(Edge((i, j), common))
            elif len(common) > 3:
                raise AssertionError("vertex pair on more than 3 sides")
        self.edges: tuple[Edge, ...] = tuple(edges)
        if len(self.edges) != 96:
            raise AssertionError("24-cell must have 96 edges")
        # either order of an edge's ends looks up the edge's index
        self.edge_by_ends: dict[tuple[int, int], int] = {}
        for k, e in enumerate(self.edges):
            i, j = e.vertices
            self.edge_by_ends[i, j] = self.edge_by_ends[j, i] = k

        # the four sides of each support in decoding order, by sign
        # pattern: (+,+), (+,-), (-,+), (-,-)
        self.support_sides: dict[tuple[int, int], tuple[Side, ...]] = {}
        for side in sorted(self.sides, key=lambda side: side.signs, reverse=True):
            self.support_sides[side.support] = self.support_sides.get(side.support, ()) + (side,)

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

    def sides_with_support(self, p: int, q: int) -> tuple[Side, Side, Side, Side]:
        """The four sides with nonzero center entries at 1-based p < q.

        Ordered by sign pattern: (+,+), (+,-), (-,+), (-,-).
        """
        try:
            return self.support_sides[p, q]  # type: ignore[return-value]
        except KeyError:
            raise ValueError(f"no side quadruple with support ({p}, {q})") from None


@cache
def the_24_cell() -> Cell24Complex:
    return Cell24Complex()

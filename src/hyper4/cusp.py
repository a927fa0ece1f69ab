"""Ideal vertex classes, parabolic stabilizers, and flat cusp types.

A cusp of the quotient manifold corresponds to an orbit of the 24 ideal
vertices under the side pairings; the walk runs on vertex indices, leaves
a vertex through its 6 sides by the cell's integer table, and moves it by
each side's vertex permutation.  In the cube charts of the vertex links,
a side pairing acts by x -> D x + t, D diagonal +-1 and t integral: a
cube map, six integers.  The walk composes the step maps of the code's
letters with no Lorentz product; it builds a word only for a tree edge
and for a stabilizer element it keeps.  The kept elements carry their
cube maps, the stabilizer's action on a horosphere, which the cover
records and the peripheral check compose by the same kernel; a flat
group is built on their affine maps.  Classifying it among the ten closed
flat 3-manifolds gives the cusp type, and the eta table turns orientable
cusp types into the signature.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from operator import mul

from .cell24 import the_24_cell
from .flatgroups import _ID3, AffineMap, FlatGroup, StructuralError, _mat_mul
from .grouppres import orbit_edges
from .lorentz import LorentzMatrix, LorentzVector
from .pairing import SidePairingSet
from .words import Word

__all__ = [
    "VertexClass",
    "vertex_classes",
    "horospherical_action",
    "cusp_flat_group",
    "eta",
    "signature",
    "ETA_TABLE",
]


@dataclass(frozen=True)
class VertexClass:
    """One orbit of ideal vertices with its parabolic stabilizer.

    Stabilizer elements come from non-tree loops of the orbit graph over
    a breadth-first spanning tree, each with its action in the
    representative's cube chart, the cube map x -> D x + t kept as
    (D11, D22, D33, t1, t2, t3).  `stabilizer` lists every distinct
    element the walk meets, closed under inverses, and `generators` the
    half of them whose inverse comes later: the half generates the same
    group, and the cusp group's consumers read only it.
    """

    index: int
    members: tuple[LorentzVector, ...]
    representative: LorentzVector
    stabilizer: tuple[tuple[Word, tuple], ...]
    generators: tuple[tuple[Word, tuple], ...]
    transversals: tuple[Word, ...]

    @property
    def size(self) -> int:
        return len(self.members)


# a cube map x -> D x + t as (D11, D22, D33, t1, t2, t3)
_IDENTITY = (1, 1, 1, 0, 0, 0)


def _compose(f: tuple, g: tuple) -> tuple:
    """The cube map f after g."""
    d0, d1, d2, s0, s1, s2 = f
    e0, e1, e2, t0, t1, t2 = g
    return (d0 * e0, d1 * e1, d2 * e2, d0 * t0 + s0, d1 * t1 + s1, d2 * t2 + s2)


def _invert(f: tuple) -> tuple:
    d0, d1, d2, t0, t1, t2 = f
    return (d0, d1, d2, -d0 * t0, -d1 * t1, -d2 * t2)


def _affine(f: tuple) -> AffineMap:
    """The cube map f as an affine map."""
    d0, d1, d2, *shift = f
    return AffineMap(((d0, 0, 0), (0, d1, 0), (0, 0, d2)), tuple(shift))


def _cube_steps(pairing_set: SidePairingSet) -> list[dict[int, tuple]]:
    """moves[s][v], the cube map of leaving vertex index v through side s.
    Leaving v through the source side of a letter R diag(k, 1) is the
    sign map diag(k_j) over the j with v_j = 0 (none at the 16 vertices
    (+-1, +-1, +-1, +-1, 2)), then x_a -> s - x_a, (a, s) the face of the
    target side at the image w; leaving w through the target side is the
    inverse, the reflection and then the sign map."""
    cell = pairing_set.cell
    moves: list = [{} for _ in cell.sides]
    for p in pairing_set.pairings:
        source, target = cell.side_index[p.source.label], cell.side_index[p.target.label]
        for v, w in enumerate(pairing_set.vertex_permutations[source]):
            if w >= 0:
                d = [k for k, x in zip(p.kpart, cell.vertices[v].coords) if not x] or [1, 1, 1]
                a, s = cell.vertex_faces[w][target]
                d[a] = -d[a]
                moves[source][v] = (*d, *(s * (b == a) for b in range(3)))
                moves[target][w] = (*d, *(-d[a] * s * (b == a) for b in range(3)))
    return moves


def _loop_cube_map(pairing_set: SidePairingSet, moves: list, vertex: int, word: Word) -> tuple:
    """The cube map of a word that fixes vertex index `vertex`, composed
    from the step maps `moves` of `_cube_steps` along the vertex path its
    letters trace, from the last letter on, as the walk of
    `vertex_classes` composes a stabilizer element.  A word whose path
    leaves the cell's vertices is refused."""
    cell = pairing_set.cell
    perms = pairing_set.vertex_permutations
    sides = {pairing_set.transition(side.label)[:2]: s for s, side in enumerate(cell.sides)}
    element, v = _IDENTITY, vertex
    for letter in reversed(word.letters):
        s = sides[letter]
        if perms[s][v] < 0:
            raise StructuralError(f"word {word} leaves the cell's ideal vertices")
        element = _compose(moves[s][v], element)
        v = perms[s][v]
    return element


def vertex_classes(pairing_set: SidePairingSet) -> list[VertexClass]:
    """Orbits of the 24 ideal vertices under the pairing action.

    Classes are ordered (and representatives chosen) by lexicographically
    least light vector.  The walk runs on vertex indices, which follow
    that order, and moves a vertex by the permutation of each side it
    lies on, in label order.  It keeps the transversal's cube map T[p]
    from the representative's chart to p's; a tree edge sets
    T[image] = g T[p] and the word T[image] = letter T[p], and another
    edge carries the Schreier element T[image]^-1 g T[p], whose word
    T[image]^-1 letter T[p] is built only when its map is new.  A kept
    element is a generator when its inverse has not been kept before it.
    The action on a cusp is faithful and the group torsion free, so the
    kept maps pair off with their inverses and the generators are the
    first of each pair.
    """
    cell = the_24_cell()
    perms = pairing_set.vertex_permutations
    # the (letter, exponent) and the cube maps of leaving through each side
    letters = [pairing_set.transition(side.label)[:2] for side in cell.sides]
    moves = _cube_steps(pairing_set)
    vertex_sides = cell.vertex_sides

    def steps(current):
        for s in vertex_sides[current]:
            yield s, perms[s][current]

    seen: set[int] = set()
    classes = []
    for rep in range(len(cell.vertices)):
        if rep in seen:
            continue
        words = {rep: Word(())}
        trans = {rep: (_IDENTITY, _IDENTITY)}
        stabilizer: list[tuple[Word, tuple]] = []
        generators: list[tuple[Word, tuple]] = []
        seen_maps = {_IDENTITY}
        for p, s, image, new in orbit_edges(rep, steps):
            moved = _compose(moves[s][p], trans[p][0])
            if new:
                trans[image] = (moved, _invert(moved))
                words[image] = Word((letters[s],)) * words[p]
                continue
            element = _compose(trans[image][1], moved)
            if element not in seen_maps:
                generator = _invert(element) not in seen_maps
                seen_maps.add(element)
                word = words[image].inverse() * Word((letters[s],)) * words[p]
                kept = (word, element)
                stabilizer.append(kept)
                if generator:
                    generators.append(kept)
        members = sorted(words.items())
        seen.update(words)
        classes.append(
            VertexClass(
                len(classes),
                tuple(cell.vertices[v] for v, _ in members),
                cell.vertices[rep],
                tuple(stabilizer),
                tuple(generators),
                tuple(w for _, w in members),
            )
        )
    return classes


def horospherical_action(matrix: LorentzMatrix, vertex: LorentzVector) -> AffineMap:
    """The exact affine action of a vertex stabilizer element in the
    vertex's cube chart.

    The normals n_a of the chart's "+" faces are orthonormal and span
    u^perp with u, so M n_b = sum_a L_ab n_a + g_b u, with
    L_ab = <n_a, M n_b>.  On x_a = 1/2 + <x, n_a> / (lam <-x, u>), M acts
    by x -> L x + (1 - L 1) / 2 + L g / lam; an integral entry is an int.
    """
    if matrix.apply(vertex) != vertex:
        raise ValueError("matrix does not fix the vertex")
    cell = the_24_cell()
    u = vertex.coords
    plus = {a: s for s, (a, sign) in cell.vertex_faces[cell.vertex_index[u]].items() if sign == 1}
    normals = [cell.sides[plus[a]].normal for a in range(3)]
    images = [matrix.apply(n) for n in normals]
    frame = [n.coords for n in normals]
    linear = tuple(tuple(n.dot(image) for image in images) for n in normals)
    lifts = []
    for column, image in zip(zip(*linear), images):
        rest = [x - sum(map(mul, column, c)) for x, c in zip(image.coords, zip(*frame))]
        lifts.append(rest[4] // u[4])
        if rest != [lifts[-1] * c for c in u]:
            raise StructuralError("the stabilizer matrix is not block triangular in the cusp basis")
    if _mat_mul(linear, tuple(zip(*linear))) != _ID3:
        raise StructuralError("affine part does not preserve the cusp metric")
    lam = 2 // u[4]
    shift = [Fraction(1 - sum(row), 2) + Fraction(sum(map(mul, row, lifts)), lam) for row in linear]
    return AffineMap.of(linear, shift)


def cusp_flat_group(vclass: VertexClass) -> FlatGroup:
    """The stabilizer as an exact flat crystallographic group, on the
    affine maps of its generators' cube maps: the half of the stabilizer
    elements that generates it."""
    if not vclass.generators:
        raise ValueError(f"vertex class {vclass.index} has an empty stabilizer")
    return FlatGroup(_affine(m) for _, m in vclass.generators)


ETA_TABLE: dict[str, Fraction] = {
    "A": Fraction(0),
    "B": Fraction(0),
    "C": Fraction(-2, 3),
    "D": Fraction(-1),
    "E": Fraction(-4, 3),
    "F": Fraction(0),
}


def eta(flat_type: str) -> Fraction:
    """Eta invariant of an orientable flat cusp cross-section."""
    try:
        return ETA_TABLE[flat_type]
    except KeyError:
        raise ValueError(
            f"eta is defined here only for orientable flat types A..F, not {flat_type!r}"
        ) from None


def signature(cusp_types) -> int | None:
    """Signature of the bounding 4-manifold: the sum of the cusp eta
    invariants, or None when a cusp type has no eta invariant.  The sum
    must come out an integer.  Each type is counted once and weighted by
    its count, so a cover's long list costs one pass of counting."""
    try:
        total = sum((c * eta(t) for t, c in Counter(cusp_types).items()), Fraction(0))
    except ValueError:
        return None
    if total.denominator != 1:
        raise ValueError(f"eta sum {total} is not an integer: impossible cusp list")
    return int(total)

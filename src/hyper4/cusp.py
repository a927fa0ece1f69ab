"""Ideal vertex classes, parabolic stabilizers, and flat cusp types.

A cusp of the quotient manifold corresponds to an orbit of the 24 ideal
vertices under the side pairings; the walk runs on vertex indices, leaves
a vertex through its 6 sides by the cell's integer table, and moves it by
each side's vertex permutation; it multiplies matrices once for each
pair of an edge of the orbit graph and its reverse, and builds a word
only for a tree edge and for a stabilizer element it keeps; the kept
elements whose inverse comes later generate the stabilizer.  The
stabilizer of a class representative acts on a horosphere as a group of
exact rational affine isometries of Euclidean 3-space; classifying that
action among the ten closed flat 3-manifolds gives the cusp type, and
the eta table turns orientable cusp types into the signature.
"""

from __future__ import annotations

import functools
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from operator import mul

from .cell24 import the_24_cell
from .flatgroups import AffineMap, FlatGroup, StructuralError, _adjugate3, _det3, _mat_mul
from .grouppres import orbit_edges
from .intmat import smith_normal_form
from .lorentz import IDENTITY, LorentzMatrix, LorentzVector, _unchecked_inverse, lorentz_product
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

    Stabilizer generators come from non-tree loops of the orbit graph
    over a breadth-first spanning tree; each matrix fixes the class
    representative's light vector exactly.  `stabilizer` lists every
    distinct element the walk meets, closed under inverses, and
    `generators` the half of them whose inverse comes later: the half
    generates the same group, and the cusp group's consumers read only it.
    """

    index: int
    members: tuple[LorentzVector, ...]
    representative: LorentzVector
    stabilizer: tuple[tuple[Word, LorentzMatrix], ...]
    generators: tuple[tuple[Word, LorentzMatrix], ...]
    transversals: tuple[Word, ...]

    @property
    def size(self) -> int:
        return len(self.members)


def vertex_classes(pairing_set: SidePairingSet) -> list[VertexClass]:
    """Orbits of the 24 ideal vertices under the pairing action.

    Classes are ordered (and representatives chosen) by lexicographically
    least light vector.  The walk runs on vertex indices, which follow
    that order, and moves a vertex by the permutation of each side it
    lies on, in label order.  It keeps the transversal matrix T[p] and
    its inverse; a tree edge sets T[image] = g T[p] and the word
    T[image] = letter T[p], and another edge carries the Schreier element
    T[image]^-1 g T[p], at two products, and its inverse, which the
    reverse edge (image, letter^-1, p) carries; the reverse of a tree
    edge carries the identity, so the walk multiplies each pair of edges
    once.  A stabilizer element kept for a new matrix gets the word
    T[image]^-1 letter T[p], and is a generator when its inverse has not
    been kept before it.  The kept elements are closed under inverses,
    and the group is torsion free, so they pair off with their inverses
    and the generators are the first of each pair.
    """
    cell = the_24_cell()
    perms = pairing_set.vertex_permutations
    # (letter, exponent, matrix) of leaving through each side, in side order
    letters = [pairing_set.transition(side.label)[:3] for side in cell.sides]
    vertex_sides = cell.vertex_sides

    def steps(current):
        for s in vertex_sides[current]:
            yield letters[s], perms[s][current]

    seen: set[int] = set()
    classes = []
    for rep in range(len(cell.vertices)):
        if rep in seen:
            continue
        words = {rep: Word(())}
        trans = {rep: (IDENTITY, IDENTITY)}
        # the element each reverse edge still ahead carries, keyed by
        # (point, letter, exponent): the inverse of its first edge's, with
        # None for the identity
        ahead: dict[tuple, LorentzMatrix | None] = {}
        stabilizer: list[tuple[Word, LorentzMatrix]] = []
        generators: list[tuple[Word, LorentzMatrix]] = []
        seen_matrices = {IDENTITY}
        for p, (letter, exp, g), image, new in orbit_edges(rep, steps):
            if new:
                # a product of letters checked at decoding is Lorentzian,
                # so J M^T J needs no second check
                matrix = g @ trans[p][0]
                trans[image] = (matrix, _unchecked_inverse(matrix))
                words[image] = Word(((letter, exp),)) * words[p]
                ahead[image, letter, -exp] = None
                continue
            if (p, letter, exp) in ahead:
                matrix = ahead.pop((p, letter, exp))
                if matrix is None:
                    continue
                # its inverse, the first edge's element, was met before
                generator = False
            else:
                matrix = trans[image][1] @ (g @ trans[p][0])
                inverse = _unchecked_inverse(matrix)
                ahead[image, letter, -exp] = inverse
                generator = inverse not in seen_matrices
            # the vertex maps bring a loop back to rep; `horospherical_action`
            # checks that each generator fixes it
            if matrix not in seen_matrices:
                seen_matrices.add(matrix)
                element = (words[image].inverse() * Word(((letter, exp),)) * words[p], matrix)
                stabilizer.append(element)
                if generator:
                    generators.append(element)
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


def _kernel_basis(spatial: tuple[int, int, int, int]) -> list[tuple[int, ...]]:
    """Basis of the integer vectors orthogonal (Euclidean) to the given
    spatial vector, embedded in the x5 = 0 hyperplane."""
    d, _, v = smith_normal_form([list(spatial)])
    if d[0][0] == 0 or any(d[0][j] != 0 for j in (1, 2, 3)):
        raise StructuralError(f"spatial vector {spatial} has no rank-3 integer complement")
    return [tuple(v[i][j] for i in range(4)) + (0,) for j in (1, 2, 3)]


@functools.lru_cache(maxsize=24)
def _cusp_basis(vertex: LorentzVector) -> tuple:
    """The integer frame ((z', w), W, adj(W), det W) at a vertex, built
    on first use; the 24-cell has 24 ideal vertices, and no entry
    depends on the code.

    u is the vertex light vector and z' = (-u1, -u2, -u3, -u4, u5), with
    <u, z'> = -2 u5^2; the w_j are an integer basis of the space-like
    complement, Lorentz-orthogonal to u and z', with Gram matrix W.
    """
    u = vertex.coords
    w = tuple(_kernel_basis(u[:4]))
    g = tuple(tuple(lorentz_product(a, b) for b in w) for a in w)
    z = tuple(-c for c in u[:4]) + (u[4],)
    return tuple(map(LorentzVector, (z, *w))), g, _adjugate3(g), _det3(g)


def horospherical_action(matrix: LorentzMatrix, vertex: LorentzVector) -> AffineMap:
    """The exact affine action of a vertex stabilizer element on the
    horosphere at the vertex.

    In the basis (u, z, w1, w2, w3), with z = z' / u5^2, the matrix is
    block triangular, and the w-block with the z-column give the affine
    map.  span(u, z) and span(w) are Lorentz-orthogonal, so the
    w-coordinates of a vector v are W^-1 (<v, w_l>); every entry is an
    integer over den = det W * u5^2, and an integral entry stays an int.
    """
    if matrix.apply(vertex) != vertex:
        raise ValueError("matrix does not fix the vertex")
    frame, gram, adjugate, det = _cusp_basis(vertex)
    images = [matrix.apply(b).coords for b in frame]
    # J u = -z' and J w_l = w_l, so the Lorentz products of an image with
    # u and the w_l are its Euclidean products with -z' and the w_l
    products = [[sum(map(mul, image, b.coords)) for b in frame] for image in images]
    scale = vertex.coords[4] ** 2
    # <M z', u> = <z', u> = -2 u5^2 and <M w_j, u> = 0
    if products[0][0] != 2 * scale or any(p[0] for p in products[1:]):
        raise StructuralError("the stabilizer matrix is not block triangular in the cusp basis")
    # the w-coordinates of M z' and of the M w_j: adj(W) (<., w_l>)_l / det W
    solved = [[sum(map(mul, row, p[1:])) for p in products] for row in adjugate]
    linear = [[scale * x for x in r[1:]] for r in solved]
    den = det * scale
    # L^T W L = den^2 W, with W L formed once
    metric = _mat_mul(tuple(zip(*linear)), _mat_mul(gram, linear))
    if metric != tuple(tuple(den * den * x for x in row) for row in gram):
        raise StructuralError("affine part does not preserve the cusp metric")
    return AffineMap.scaled(linear, [r[0] for r in solved], den)


def cusp_flat_group(vclass: VertexClass) -> FlatGroup:
    """The stabilizer as an exact flat crystallographic group, on the
    actions of its generators: the half of the stabilizer elements that
    generates it."""
    if not vclass.generators:
        raise ValueError(f"vertex class {vclass.index} has an empty stabilizer")
    maps = [
        horospherical_action(matrix, vclass.representative)
        for _, matrix in vclass.generators
    ]
    return FlatGroup(maps)


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

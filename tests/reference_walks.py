"""The ridge, edge and vertex walks with a matrix on every step, as the
reference for the gate in `hyper4.pairing` and `hyper4.cusp`, and the
references for the cusp actions.

`ridge_cycles` multiplies each cycle's matrix along its walk,
`edge_orbits` compares g T[p] with T[image] on every edge of every
orbit, and `vertex_classes` carries a (word, matrix) pair through the
whole Schreier transversal, marking as a generator each element it
keeps before its inverse, and reads each kept matrix's action with
`horospherical_action`, kept as the six integers of its cube map by
`cube_map`.  They read none of the package's tables: each step's
matrix comes from a scan of the pairings (`side_moves`), each image
from `g.apply`, and each face from lookups keyed by sets of light
vectors that `face_tables` builds from the side normals and
`cell.vertices` alone.  They return what the package's walks return,
and raise the same messages.

`chart_map` finds a matrix's map between two vertices' cube charts from
the chart points of the cell's other ideal vertices alone, with no
frame algebra.  `w_frame_action` is the horospherical action in an
integer frame (u, z, w1, w2, w3) whose w_l span the integer complement
of u's spatial part, by a Smith form: a second chart, conjugate to the
cube chart, whose flat groups must have the same invariants.
"""

import functools
from fractions import Fraction
from itertools import combinations
from operator import mul

from hyper4.cell24 import the_24_cell
from hyper4.cusp import VertexClass, _affine, horospherical_action
from hyper4.flatgroups import AffineMap, StructuralError, _adjugate3, _det3, _inv3, _mat_mul
from hyper4.grouppres import orbit_edges, schreier_transversal
from hyper4.intmat import smith_normal_form
from hyper4.lorentz import IDENTITY, LorentzMatrix, LorentzVector, lorentz_product
from hyper4.pairing import FaceCycle
from hyper4.words import Word


def cube_map(action: AffineMap) -> tuple:
    """The cube map (D11, D22, D33, t1, t2, t3) of an affine map
    x -> D x + t whose D is diagonal +-1 and whose t is integral."""
    linear, shift = action
    diagonal = tuple(linear[a][a] for a in range(3))
    cube = (*diagonal, *(int(x) for x in shift))
    if _affine(cube) != action or not {*diagonal} <= {1, -1}:
        raise AssertionError(f"{action} is not a cube map")
    return cube


def side_moves(pairing_set) -> dict:
    """side label -> (letter, exponent, matrix, partner label) of leaving
    the cell through it, by a scan of the pairings."""
    moves = {}
    for p in pairing_set.pairings:
        moves[p.source.label] = (p.letter, 1, p.matrix, p.target.label)
        moves[p.target.label] = (p.letter, -1, p.matrix.inverse(), p.source.label)
    return moves


@functools.cache
def face_tables() -> tuple[dict, dict, dict]:
    """Each side's ideal vertices, the ridges and the edges, from the
    side normals and `cell.vertices` alone: a vertex v lies on the side
    with normal n when <v, n> = 0, a ridge is the vertex set common to
    two orthogonal sides, and an edge is a vertex pair on three common
    sides.  Ridges map to their side labels and edges to theirs, keyed
    by vertex sets, in the order of side pairs and of vertex pairs."""
    cell = the_24_cell()
    on = {s.label: frozenset(v for v in cell.vertices if v.dot(s.normal) == 0) for s in cell.sides}
    ridges = {
        on[s.label] & on[t.label]: (s.label, t.label)
        for s, t in combinations(cell.sides, 2)
        if s.normal.dot(t.normal) == 0
    }
    edges = {}
    for v, w in combinations(cell.vertices, 2):
        labels = tuple(s.label for s in cell.sides if {v, w} <= on[s.label])
        if len(labels) == 3:
            edges[frozenset((v, w))] = labels
    return on, ridges, edges


def _indices(faces, names) -> tuple:
    """Each face as the package names it, a sorted pair of indices into
    `names`, the cell's sides by label or its vertices."""
    order = {name: i for i, name in enumerate(names)}
    return tuple(tuple(sorted(order[x] for x in face)) for face in faces)


def ridge_cycles(pairing_set) -> list[FaceCycle]:
    cell = pairing_set.cell
    moves = side_moves(pairing_set)
    _, ridges, _ = face_tables()
    seen: set = set()
    cycles = []
    for ridge, sides in ridges.items():
        if ridge in seen:
            continue
        start = (ridge, sides[0])
        state = start
        letters, members = [], []
        matrix = IDENTITY
        for _ in range(8 * len(ridges)):
            current, active = state
            members.append(current)
            letter, exp, g, arrival = moves[active]
            letters.append((letter, exp))
            matrix = g @ matrix
            image = frozenset(g.apply(v) for v in current)
            first, second = ridges[image]
            state = (image, second if first == arrival else first)
            if state == start:
                break
        else:
            raise ValueError(f"ridge cycle at {sides} did not close")
        ordered = tuple(dict.fromkeys(members))
        seen.update(ordered)
        labels = _indices((ridges[r] for r in ordered), [s.label for s in cell.sides])
        cycles.append(FaceCycle(2, labels, Word.make(tuple(reversed(letters))), matrix))
    return cycles


def edge_orbits(pairing_set) -> list[FaceCycle]:
    cell = pairing_set.cell
    moves = side_moves(pairing_set)
    _, _, edges = face_tables()

    def steps(key):
        for side_label in edges[key]:
            letter, exp, g, _ = moves[side_label]
            yield ((letter, exp), g), frozenset(g.apply(v) for v in key)

    seen: set = set()
    orbits = []
    for key in edges:
        if key in seen:
            continue
        trans = {key: (Word(()), IDENTITY)}
        for p, (letter, g), image_key, new in orbit_edges(key, steps):
            word, matrix = trans[p]
            moved = g @ matrix
            if new:
                trans[image_key] = (Word.make((letter,)) * word, moved)
            elif moved != trans[image_key][1]:
                loop = trans[image_key][0].inverse() * Word.make((letter,)) * word
                raise ValueError(f"edge orbit loop {loop} is a nontrivial stabilizer")
        seen.update(trans)
        orbits.append(FaceCycle(1, _indices(trans, cell.vertices), Word(()), IDENTITY))
    return orbits


def vertex_classes(pairing_set) -> list[VertexClass]:
    cell = the_24_cell()
    moves = side_moves(pairing_set)
    on, _, _ = face_tables()

    def steps(current):
        for side_label, vertices in on.items():
            if current in vertices:
                letter, exp, g, _ = moves[side_label]
                yield (letter, exp), (Word.make(((letter, exp),)), g), g.apply(current)

    def product(a, b):
        return b[0] * a[0], b[1] @ a[1]

    def inverse(a):
        return a[0].inverse(), LorentzMatrix.inverse(a[1])

    seen: set = set()
    classes = []
    for rep in cell.vertices:
        if rep in seen:
            continue
        members = [(rep, Word(()))]
        stabilizer = []
        generators = []
        seen_matrices = {IDENTITY}
        orbit = schreier_transversal(rep, steps, (Word(()), IDENTITY), product, inverse)
        for *_, image, new, (word, matrix) in orbit:
            if new:
                members.append((image, word))
            elif matrix not in seen_matrices:
                seen_matrices.add(matrix)
                element = (word, cube_map(horospherical_action(matrix, rep)))
                stabilizer.append(element)
                if matrix.inverse() not in seen_matrices:
                    generators.append(element)
        members.sort(key=lambda member: member[0].coords)
        seen.update(v for v, _ in members)
        classes.append(
            VertexClass(
                len(classes),
                tuple(v for v, _ in members),
                rep,
                tuple(stabilizer),
                tuple(generators),
                tuple(w for _, w in members),
            )
        )
    return classes


def chart_point(vertex: LorentzVector, x) -> tuple[Fraction, ...]:
    """The cube-chart point at an ideal vertex u of a light vector x off
    its ray: x_a = 1/2 + <x, n_a> / (lam <-x, u>), with n_a the normal
    of the face (a, +1) and lam u the sum of opposite normals."""
    cell = the_24_cell()
    u = vertex.coords
    faces = cell.vertex_faces[cell.vertex_index[u]]
    plus = {a: cell.sides[s].normal.coords for s, (a, sign) in faces.items() if sign == 1}
    (minus,) = [s for s, face in faces.items() if face == (0, -1)]
    total = [x + y for x, y in zip(plus[0], cell.sides[minus].normal.coords)]
    lam = total[4] // u[4]
    height = -lorentz_product(x, u)
    return tuple(
        Fraction(1, 2) + Fraction(lorentz_product(x, plus[a]), lam * height) for a in range(3)
    )


def chart_map(matrix: LorentzMatrix, vertex: LorentzVector, image: LorentzVector) -> AffineMap:
    """The affine map A with A(chart_point(vertex, x)) =
    chart_point(image, M x) for each of the cell's ideal vertices x off
    vertex: solved on the first four whose points span, and checked on
    all 23."""
    pairs = [
        (chart_point(vertex, x.coords), chart_point(image, matrix.apply(x).coords))
        for x in the_24_cell().vertices
        if x != vertex
    ]

    def differences(points):
        return tuple(zip(*(tuple(a - b for a, b in zip(p, points[0])) for p in points[1:])))

    for chosen in combinations(pairs, 4):
        spread = differences([p for p, _ in chosen])
        if _det3(spread):
            break
    linear = _mat_mul(differences([q for _, q in chosen]), _inv3(spread))
    p0, q0 = chosen[0]
    shift = [q - sum(map(mul, row, p0)) for row, q in zip(linear, q0)]
    affine = AffineMap.of(linear, shift)
    for p, q in pairs:
        moved = tuple(sum(map(mul, row, p)) + t for row, t in zip(affine.linear, affine.shift))
        if moved != q:
            raise AssertionError("the matrix does not map one cube chart affinely onto the other")
    return affine


def kernel_basis(spatial: tuple[int, int, int, int]) -> list[tuple[int, ...]]:
    """Basis of the integer vectors orthogonal (Euclidean) to the given
    spatial vector, embedded in the x5 = 0 hyperplane."""
    d, _, v = smith_normal_form([list(spatial)])
    if d[0][0] == 0 or any(d[0][j] != 0 for j in (1, 2, 3)):
        raise StructuralError(f"spatial vector {spatial} has no rank-3 integer complement")
    return [tuple(v[i][j] for i in range(4)) + (0,) for j in (1, 2, 3)]


@functools.lru_cache(maxsize=24)
def cusp_basis(vertex: LorentzVector) -> tuple:
    """The integer frame ((z', w), W, adj(W), det W) at a vertex: u is
    the vertex light vector and z' = (-u1, -u2, -u3, -u4, u5), with
    <u, z'> = -2 u5^2; the w_j are an integer basis of the space-like
    complement, Lorentz-orthogonal to u and z', with Gram matrix W."""
    u = vertex.coords
    w = tuple(kernel_basis(u[:4]))
    g = tuple(tuple(lorentz_product(a, b) for b in w) for a in w)
    z = tuple(-c for c in u[:4]) + (u[4],)
    return tuple(map(LorentzVector, (z, *w))), g, _adjugate3(g), _det3(g)


def w_frame_action(matrix: LorentzMatrix, vertex: LorentzVector) -> AffineMap:
    """The affine action of a vertex stabilizer element in the w-frame.

    In the basis (u, z, w1, w2, w3), with z = z' / u5^2, the matrix is
    block triangular, and the w-block with the z-column give the affine
    map.  span(u, z) and span(w) are Lorentz-orthogonal, so the
    w-coordinates of a vector v are W^-1 (<v, w_l>); every entry is an
    integer over den = det W * u5^2."""
    if matrix.apply(vertex) != vertex:
        raise ValueError("matrix does not fix the vertex")
    frame, gram, adjugate, det = cusp_basis(vertex)
    images = [matrix.apply(b).coords for b in frame]
    # J u = -z' and J w_l = w_l, so the Lorentz products of an image with
    # u and the w_l are its Euclidean products with -z' and the w_l
    products = [[sum(map(mul, image, b.coords)) for b in frame] for image in images]
    scale = vertex.coords[4] ** 2
    if products[0][0] != 2 * scale or any(p[0] for p in products[1:]):
        raise StructuralError("the stabilizer matrix is not block triangular in the cusp basis")
    solved = [[sum(map(mul, row, p[1:])) for p in products] for row in adjugate]
    linear = [[scale * x for x in r[1:]] for r in solved]
    den = det * scale
    metric = _mat_mul(tuple(zip(*linear)), _mat_mul(gram, linear))
    if metric != tuple(tuple(den * den * x for x in row) for row in gram):
        raise StructuralError("affine part does not preserve the cusp metric")
    return AffineMap.of(
        [[Fraction(x, den) for x in row] for row in linear], [Fraction(r[0], den) for r in solved]
    )

"""The ridge, edge and vertex walks with a matrix on every step, as the
reference for the gate in `hyper4.pairing` and `hyper4.cusp`.

`ridge_cycles` multiplies each cycle's matrix along its walk,
`edge_orbits` compares g T[p] with T[image] on every edge of every
orbit, and `vertex_classes` carries a (word, matrix) pair through the
whole Schreier transversal, marking as a generator each element it
keeps before its inverse.  They return what the package's walks
return, and raise the same messages.
"""

from hyper4.cell24 import the_24_cell
from hyper4.cusp import VertexClass
from hyper4.grouppres import orbit_edges, schreier_transversal
from hyper4.lorentz import IDENTITY, LorentzMatrix
from hyper4.pairing import FaceCycle
from hyper4.words import Word


def ridge_cycles(pairing_set) -> list[FaceCycle]:
    cell = pairing_set.cell
    seen: set = set()
    cycles = []
    for ridge in cell.ridges:
        if ridge.sides in seen:
            continue
        start = (ridge, ridge.sides[0])
        state = start
        letters, members = [], []
        matrix = IDENTITY
        for _ in range(8 * len(cell.ridges)):
            current, active = state
            members.append(current.sides)
            letter, exp, g, arrival, vmap = pairing_set.transition(active)
            letters.append((letter, exp))
            matrix = g @ matrix
            image = cell.ridge_by_vertices[frozenset(vmap[v] for v in current.vertices)]
            first, second = image.sides
            state = (image, second if first == arrival else first)
            if state == start:
                break
        else:
            raise ValueError(f"ridge cycle at {ridge.sides} did not close")
        ordered = tuple(dict.fromkeys(members))
        seen.update(ordered)
        cycles.append(FaceCycle(2, ordered, Word.make(tuple(reversed(letters))), matrix))
    return cycles


def edge_orbits(pairing_set) -> list[FaceCycle]:
    cell = pairing_set.cell

    def steps(key):
        current = cell.edge_by_vertices[key]
        for side_label in current.sides:
            letter, exp, g, _, vmap = pairing_set.transition(side_label)
            yield ((letter, exp), g), frozenset(vmap[v] for v in current.vertices)

    seen: set = set()
    orbits = []
    for edge in cell.edges:
        key = frozenset(edge.vertices)
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
        members = tuple(cell.edge_by_vertices[k].vertices for k in trans)
        orbits.append(FaceCycle(1, members, Word(()), IDENTITY))
    return orbits


def vertex_classes(pairing_set) -> list[VertexClass]:
    cell = the_24_cell()

    def steps(current):
        for side_label in cell.sides_of_vertex(current):
            letter, exp, g, _, vmap = pairing_set.transition(side_label)
            yield (letter, exp), (Word.make(((letter, exp),)), g), vmap[current]

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
                stabilizer.append((word, matrix))
                if matrix.inverse() not in seen_matrices:
                    generators.append((word, matrix))
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

"""Side-pairing codes: decoding, validation, face cycles, fundamental group.

A census code is six characters from {1..9, A..F}.  Each character
selects a diagonal sign matrix k (bit i-1 set means the i-th sign is
-1) for one letter pair, in the fixed order (a,b), (c,d), (e,f),
(g,h), (i,j), (k,l) attached to coordinate supports (1,2), (1,3),
(2,3), (1,4), (2,4), (3,4).  Within a support the four sides are
ordered by sign pattern (+,+) < (+,-) < (-,+) < (-,-); the first letter
pairs the (+,+) side with the side at k times its center, the second
letter pairs the next unused side with the remaining one.  Each pairing
matrix is the reflection in the target side composed with k.

A pairing is an isometry carrying its source side onto its target side,
so its whole action on the faces of the cell is a permutation of vertex
indices: the bijection of the source side's 6 ideal vertices onto the
target side's.  Decoding builds each side's permutation once, from 6
matrix-vector products per letter, beside its transition (letter,
exponent, matrix, partner side), both indexed by side.  The ridge and
edge walks move faces by the permutations and apply no matrix: the
ridge walk looks each image ridge up by its vertex indices, the edge
walk each image edge by its end indices, in the cell's integer tables.

The manifold gate on ridges and edges counts faces (Poincare's polyhedron
theorem, Ratcliffe, Foundations of Hyperbolic Manifolds, sec. 11.2).  A
ridge cycle has the identity matrix exactly when it has length 4, so only
a cycle of another length is multiplied out, to name it in the error; an
edge orbit has a trivial stabilizer exactly when it has 8 edges, so only
an orbit of another size is walked with matrices, to name its loop.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import prod
from typing import NoReturn

from .cell24 import Cell24Complex, Side, the_24_cell
from .grouppres import GroupPresentation, orbit_edges
from .lorentz import IDENTITY, LorentzMatrix, diagonal_k
from .words import Word

__all__ = [
    "CodeError",
    "SidePairing",
    "SidePairingSet",
    "FaceCycle",
    "GENERATOR_LETTERS",
    "parse_code",
    "build_side_pairings",
    "validate_pairings",
    "face_cycles",
    "ridge_presentation",
    "fundamental_group",
    "parse_census_lines",
]

CODE_ALPHABET = "123456789ABCDEF"

# letter pairs with the 1-based coordinate support of their four sides
GENERATOR_GROUPS: tuple[tuple[str, str, tuple[int, int]], ...] = (
    ("a", "b", (1, 2)),
    ("c", "d", (1, 3)),
    ("e", "f", (2, 3)),
    ("g", "h", (1, 4)),
    ("i", "j", (2, 4)),
    ("k", "l", (3, 4)),
)

GENERATOR_LETTERS = tuple(x for pair in GENERATOR_GROUPS for x in pair[:2])


class CodeError(ValueError):
    """A census code that cannot be decoded; carries the 1-based position."""

    def __init__(self, message: str, position: int | None = None):
        super().__init__(message)
        self.position = position


def parse_code(text: str) -> list[tuple[int, int, int, int]]:
    """Parse a 6-character code into the six k-parts, in letter-pair order."""
    if len(text) != 6:
        raise CodeError(f"code must have 6 characters, got {len(text)}")
    kparts = []
    for pos, ch in enumerate(text, start=1):
        if ch not in CODE_ALPHABET:
            raise CodeError(
                f"invalid character {ch!r} at position {pos}: expected one of 1-9, A-F",
                position=pos,
            )
        value = int(ch, 16)
        kparts.append(tuple(-1 if value >> i & 1 else 1 for i in range(4)))
    return kparts


@dataclass(frozen=True)
class SidePairing:
    """One generator: an isometry carrying the source side onto the target."""

    letter: str
    source: Side
    target: Side
    kpart: tuple[int, int, int, int]
    matrix: LorentzMatrix

    @property
    def sign(self) -> int:
        """+1 when the pairing preserves orientation, -1 when it reverses it.

        The matrix is R diag(k, 1), with R the reflection in the target
        side: det R = -1 and det diag(k, 1) = prod(k), and its (5,5)
        entry is 3 > 0, so the determinant, -prod(k), is the sign.
        """
        return -prod(self.kpart)


@dataclass(frozen=True)
class SidePairingSet:
    """The 12 generators of one code, with the two side-indexed tables
    that every walk reads.

    `transitions[s]` is (letter, exponent, matrix, partner side index)
    for leaving the cell through side index s: the generator when s is
    its source, its inverse, by the checked `LorentzMatrix.inverse`, when
    s is its target.  `vertex_permutations[s]` is that move on vertex
    indices: entry v is the index of the image of vertex v when v lies on
    side s, and -1 otherwise.  Neither table, nor the letters' matrices,
    takes part in equality.
    """

    code: str
    pairings: tuple[SidePairing, ...]
    transitions: tuple[tuple[str, int, LorentzMatrix, int], ...] = field(
        init=False, repr=False, compare=False
    )
    vertex_permutations: tuple[tuple[int, ...], ...] = field(
        init=False, repr=False, compare=False
    )
    _letters: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        cell = self.cell
        vertices, index = cell.vertices, cell.vertex_index
        letters: dict[tuple[str, int], LorentzMatrix] = {}
        transitions: list = [None] * len(cell.sides)
        perms: list = [None] * len(cell.sides)
        for p in self.pairings:
            source, target = cell.side_index[p.source.label], cell.side_index[p.target.label]
            on = cell.side_vertices[source]
            images = [index.get(p.matrix.apply(vertices[v]).coords) for v in on]
            if set(images) != set(cell.side_vertices[target]):
                raise ValueError(
                    f"pairing {p.letter} does not carry the vertices of side "
                    f"{p.source.label} onto those of side {p.target.label}"
                )
            perm, inverse = [-1] * len(vertices), [-1] * len(vertices)
            for v, w in zip(on, images):
                perm[v], inverse[w] = w, v
            inverse_matrix = letters[p.letter, -1] = p.matrix.inverse()
            letters[p.letter, 1] = p.matrix
            transitions[source] = (p.letter, 1, p.matrix, target)
            transitions[target] = (p.letter, -1, inverse_matrix, source)
            perms[source], perms[target] = tuple(perm), tuple(inverse)
        object.__setattr__(self, "_letters", letters)
        object.__setattr__(self, "transitions", tuple(transitions))
        object.__setattr__(self, "vertex_permutations", tuple(perms))

    @property
    def cell(self) -> Cell24Complex:
        return the_24_cell()

    def evaluate(self, word: Word) -> LorentzMatrix:
        """The matrix of a word in the generators (left-to-right product)."""
        out = IDENTITY
        for letter in word.letters:
            try:
                out = out @ self._letters[letter]
            except KeyError:
                raise ValueError(f"word uses unknown generator {letter[0]!r}") from None
        return out


def build_side_pairings(code: str) -> SidePairingSet:
    """Decode a code into its 12 side-pairing generators.

    Raises CodeError when a k-part fixes the (+,+) side of its support
    (the side would be paired with itself, which no manifold code does).
    """
    kparts = parse_code(code)
    cell = the_24_cell()
    pairings = []
    for pos, ((first, second, (p, q)), kpart) in enumerate(
        zip(GENERATOR_GROUPS, kparts), start=1
    ):
        if kpart[p - 1] == 1 and kpart[q - 1] == 1:
            raise CodeError(
                f"character {code[pos - 1]!r} at position {pos} fixes the sides "
                f"with support ({p},{q}): sides would be paired with themselves",
                position=pos,
            )
        quad = cell.sides_with_support(p, q)
        used: set[str] = set()
        for letter in (first, second):
            source = next(s for s in quad if s.label not in used)
            target_center = tuple(k * c for k, c in zip(kpart, source.center))
            target = cell.by_center[target_center]
            used.update({source.label, target.label})
            matrix = target.reflection() @ diagonal_k(kpart)
            pairings.append(SidePairing(letter, source, target, kpart, matrix))
    return SidePairingSet(code, tuple(pairings))


def validate_pairings(pairing_set: SidePairingSet) -> None:
    """Raise ValueError naming the first letter or side that fails.

    Each matrix must be Lorentzian, keep the upper light cone ((5,5)
    entry > 0) and be congruent to the identity mod 2; it must carry its
    source side's normal to minus its target side's; and the partner map
    on the 24 sides must be a fixed-point-free involution.  Every letter
    of every decodable code passes, which the test over all 72
    (position, character) entries shows, so no verb calls this.
    """
    for p in pairing_set.pairings:
        m = p.matrix.rows
        if not p.matrix.is_lorentzian():
            raise ValueError(f"pairing {p.letter} is not Lorentzian")
        if m[4][4] <= 0:
            raise ValueError(f"pairing {p.letter} does not keep the upper light cone")
        if any((m[i][j] - (i == j)) % 2 for i in range(5) for j in range(5)):
            raise ValueError(f"pairing {p.letter} is not congruent to the identity mod 2")
        image = p.matrix.apply(p.source.normal).coords
        if image != tuple(-c for c in p.target.normal.coords):
            raise ValueError(
                f"pairing {p.letter} does not carry the normal of side "
                f"{p.source.label} to minus that of side {p.target.label}"
            )
    # the partner map is a fixed-point-free involution exactly when every
    # side lies in one pairing and no pairing joins a side to itself
    paired: set[str] = set()
    for p in pairing_set.pairings:
        if p.source.label == p.target.label:
            raise ValueError(f"side {p.source.label} is paired with itself")
        for side in (p.source.label, p.target.label):
            if side in paired:
                raise ValueError(f"side {side} is paired twice")
            paired.add(side)
    for side in pairing_set.cell.sides:
        if side.label not in paired:
            raise ValueError(f"side {side.label} is not paired")


@dataclass(frozen=True)
class FaceCycle:
    """Orbit of a ridge (dimension 2) or edge (dimension 1) with its cycle data.

    The members are the faces in walk order: a ridge by its pair of
    side indices, an edge by its pair of vertex indices.  For ridges the
    word multiplies, left to right, to the cycle matrix; a manifold code
    needs every ridge cycle to have length 4 and identity matrix.  Edge
    orbits carry no cycle relation of their own (their stabilizers are
    checked to be trivial); word and matrix are the identity for them.
    """

    dimension: int
    members: tuple
    word: Word
    cycle_matrix: LorentzMatrix

    @property
    def length(self) -> int:
        return len(self.members)


def _ridge_cycles(pairing_set: SidePairingSet) -> list[FaceCycle]:
    """The ridge cycles, walked on the vertex permutations.

    Each ridge lies on two sides of different supports.  The cell is
    right-angled and a k-part keeps supports, so the walk alternates
    between those two supports and reads only the transitions of their
    two code positions: every ridge cycle of every decodable code is a
    cycle of the code with F at the other four positions.  The test over
    all 15 position pairs and 12^2 characters in tests/test_pairing.py
    shows that each such cycle has the identity matrix exactly when it
    has length 4.  So a cycle of length 4 records IDENTITY with no
    product, and only a cycle of another length evaluates its word.
    """
    cell = pairing_set.cell
    ridges, ridge_by_vertices = cell.ridges, cell.ridge_by_vertices
    transitions, perms = pairing_set.transitions, pairing_set.vertex_permutations
    seen: set[int] = set()
    cycles = []
    for k, ridge in enumerate(ridges):  # sorted by side pair
        if k in seen:
            continue
        # traverse states (ridge index, active side), starting through the
        # ridge's first side
        start = state = (k, ridge.sides[0])
        letters: list[tuple[str, int]] = []
        members: list[int] = []
        for _ in range(8 * len(ridges)):
            current, active = state
            members.append(current)
            letter, exp, _, arrival = transitions[active]
            letters.append((letter, exp))
            a, b, c = ridges[current].vertices
            perm = perms[active]
            image = ridge_by_vertices[perm[a], perm[b], perm[c]]
            # the image ridge's side other than the arrival side is active next
            first, second = ridges[image].sides
            state = (image, second if first == arrival else first)
            if state == start:
                break
        else:
            raise ValueError(
                f"ridge cycle at {tuple(cell.sides[s].label for s in ridge.sides)} did not close"
            )
        ordered = tuple(dict.fromkeys(members))
        seen.update(ordered)
        word = Word.make(tuple(reversed(letters)))
        matrix = IDENTITY if len(ordered) == 4 else pairing_set.evaluate(word)
        cycles.append(FaceCycle(2, tuple(ridges[r].sides for r in ordered), word, matrix))
    return cycles


def _edge_steps(pairing_set: SidePairingSet):
    """steps(e) for `orbit_edges` over edge indices: for each of the
    edge's 3 sides, in index order, the side's index and the image edge,
    looked up by the end indices that the side's vertex permutation
    moves."""
    edges, edge_by_ends = pairing_set.cell.edges, pairing_set.cell.edge_by_ends
    perms = pairing_set.vertex_permutations

    def steps(e):
        edge = edges[e]
        a, b = edge.vertices
        for s in edge.sides:
            perm = perms[s]
            yield s, edge_by_ends[perm[a], perm[b]]

    return steps


def _edge_orbits(pairing_set: SidePairingSet) -> list[FaceCycle]:
    """Orbits of the 96 edges, each in one `orbit_edges` walk on edge
    indices, with no matrix; the ridge gate must have passed.

    An edge lies on 3 sides at right dihedral angles, so its link in the
    cell is an octant triangle of area pi/2, and its vertices are the 3
    ridges through it.  Once every ridge cycle has length 4, the links
    of an edge class of k edges close up, 4 at each ridge vertex, into
    the link of the class: the sphere modulo the edge's stabilizer, of
    area 4 pi / |Stab|.  So k pi/2 = 4 pi / |Stab|, and the stabilizer is
    trivial exactly when the orbit has 8 edges.  The first orbit of
    another size goes to `_raise_edge_loop`; the orbits before it have
    no nontrivial loop, so its message is the first one the matrix walk
    over every orbit finds.
    """
    cell = pairing_set.cell
    steps = _edge_steps(pairing_set)
    seen: set[int] = set()
    orbits = []
    for start in range(len(cell.edges)):
        if start in seen:
            continue
        orbit = [start] + [image for *_, image, new in orbit_edges(start, steps) if new]
        if len(orbit) != 8:
            _raise_edge_loop(pairing_set, start)
        seen.update(orbit)
        members = tuple(cell.edges[e].vertices for e in orbit)
        orbits.append(FaceCycle(1, members, Word(()), IDENTITY))
    return orbits


def _raise_edge_loop(pairing_set: SidePairingSet, start: int) -> NoReturn:
    """Raise ValueError naming the first nontrivial loop of the orbit of
    edge index start.

    T[p] is the pair (tree word, matrix) carrying the orbit's first edge
    to p.  A tree edge sets T[image] = (letter T[p], g T[p]); every other
    edge checks that its loop T[image]^-1 g T[p] is trivial, that is
    g T[p] = T[image], at one product and no inverse (Schreier's lemma).
    An orbit with no nontrivial loop contradicts the link-area argument
    of `_edge_orbits`, and raises as well.
    """
    transitions = pairing_set.transitions
    trans = {start: (Word(()), IDENTITY)}
    for p, s, image, new in orbit_edges(start, _edge_steps(pairing_set)):
        letter, exp, g, _ = transitions[s]
        word, matrix = trans[p]
        moved = g @ matrix
        if new:
            trans[image] = (Word(((letter, exp),)) * word, moved)
        elif moved != trans[image][1]:
            loop = trans[image][0].inverse() * Word(((letter, exp),)) * word
            raise ValueError(f"edge orbit loop {loop} is a nontrivial stabilizer")
    raise ValueError(
        f"edge orbit of {len(trans)} edges has no nontrivial loop: "
        "its stabilizer is trivial, and it should have 8 edges"
    )


def face_cycles(pairing_set: SidePairingSet, dimension: int) -> list[FaceCycle]:
    """Equivalence classes of codimension-2 (dimension=2) ridges or
    codimension-3 (dimension=1) edges under the pairing action.  The
    edge gate reads its verdict off orbit sizes, which is sound once
    `ridge_presentation` has accepted the ridge cycles."""
    if dimension == 2:
        return _ridge_cycles(pairing_set)
    if dimension == 1:
        return _edge_orbits(pairing_set)
    raise ValueError("dimension must be 1 (edges) or 2 (ridges)")


def ridge_presentation(ridge_cycles: list[FaceCycle]) -> GroupPresentation:
    """Presentation with the 12 letters as generators and one relator
    per ridge class.  Requires every cycle matrix to be the identity, and
    then every cycle to have length 4 (angle sum 4 * pi/2 = 2pi)."""
    for cycle in ridge_cycles:
        if cycle.cycle_matrix != IDENTITY:
            raise ValueError(
                f"ridge cycle {cycle.word} has non-identity matrix: not a manifold code"
            )
    for cycle in ridge_cycles:
        if cycle.length != 4:
            raise ValueError(
                f"ridge cycle {cycle.word} has length {cycle.length}, not 4: "
                "not a manifold code"
            )
    return GroupPresentation(GENERATOR_LETTERS, tuple(c.word for c in ridge_cycles))


def fundamental_group(pairing_set: SidePairingSet) -> GroupPresentation:
    """The `ridge_presentation` of the code's ridge cycles."""
    return ridge_presentation(face_cycles(pairing_set, 2))


def parse_census_lines(lines) -> list[tuple[int, str, str]]:
    """Parse census file lines into (line number, code, annotation) triples.

    One code per line; text after whitespace is an annotation; lines
    beginning with '#' and blank lines are skipped.
    """
    out = []
    for lineno, raw in enumerate(lines, start=1):
        stripped = raw.strip()
        if not stripped or stripped.startswith("#"):
            continue
        parts = stripped.split(None, 1)
        code = parts[0]
        note = parts[1] if len(parts) > 1 else ""
        out.append((lineno, code, note))
    return out

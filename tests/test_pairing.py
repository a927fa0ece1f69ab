"""Decoding census codes into side pairings and their face combinatorics."""

import contextlib
import io
from collections import Counter
from dataclasses import replace
from itertools import combinations
from pathlib import Path

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_walks
from hyper4 import analysis as analysis_module
from hyper4 import pairing as pairing_module
from hyper4.analysis import CodeAnalysis
from hyper4.cell24 import the_24_cell
from hyper4.cli import main
from hyper4.cusp import vertex_classes
from hyper4.grouppres import orbit_edges
from hyper4.lorentz import IDENTITY, LorentzMatrix, diagonal_k
from hyper4.pairing import (
    CODE_ALPHABET,
    GENERATOR_GROUPS,
    GENERATOR_LETTERS,
    CodeError,
    FaceCycle,
    SidePairingSet,
    build_side_pairings,
    face_cycles,
    fundamental_group,
    parse_census_lines,
    parse_code,
    ridge_presentation,
    validate_pairings,
)
from hyper4.words import Word

POOL = Path(__file__).parent.parent / "perfbench" / "data" / "pool.tsv"


# (letter, source, target, k) for the census manifold with code 14FF28
GOLDEN_ARROWS = [
    ("a", "A", "A'", (-1, 1, 1, 1)),
    ("b", "B", "B'", (-1, 1, 1, 1)),
    ("c", "C", "C'", (1, 1, -1, 1)),
    ("d", "D", "D'", (1, 1, -1, 1)),
    ("e", "E", "E'", (-1, -1, -1, -1)),
    ("f", "F", "F'", (-1, -1, -1, -1)),
    ("g", "G", "G'", (-1, -1, -1, -1)),
    ("h", "H", "H'", (-1, -1, -1, -1)),
    ("i", "I", "I'", (1, -1, 1, 1)),
    ("j", "J", "J'", (1, -1, 1, 1)),
    ("k", "K", "K'", (1, 1, 1, -1)),
    ("l", "L", "L'", (1, 1, 1, -1)),
]


def test_parse_code_kparts():
    assert parse_code("14FF28") == [
        (-1, 1, 1, 1),
        (1, 1, -1, 1),
        (-1, -1, -1, -1),
        (-1, -1, -1, -1),
        (1, -1, 1, 1),
        (1, 1, 1, -1),
    ]


def test_parse_code_rejects_bad_character():
    with pytest.raises(CodeError) as exc:
        parse_code("14FF2G")
    assert exc.value.position == 6
    assert "'G'" in str(exc.value)


def test_parse_code_rejects_wrong_length():
    with pytest.raises(CodeError):
        parse_code("14FF2")
    with pytest.raises(CodeError):
        parse_code("14FF288")


def test_self_pairing_character_rejected():
    # '8' leaves both signs of support (1,2) alone, so a and b would fix sides
    with pytest.raises(CodeError) as exc:
        build_side_pairings("84FF28")
    assert exc.value.position == 1


def test_golden_arrows():
    ps = build_side_pairings("14FF28")
    assert len(ps.pairings) == 12
    for letter, src, tgt, kpart in GOLDEN_ARROWS:
        p = next(q for q in ps.pairings if q.letter == letter)
        assert p.source.label == src
        assert p.target.label == tgt
        assert p.kpart == kpart


def test_pairings_validate():
    assert validate_pairings(build_side_pairings("14FF28")) is None


# swapping coordinates 3 and 4 fixes side A, its normal and its vertex set
SWAP_34 = LorentzMatrix(
    (
        (1, 0, 0, 0, 0),
        (0, 1, 0, 0, 0),
        (0, 0, 0, 1, 0),
        (0, 0, 1, 0, 0),
        (0, 0, 0, 0, 1),
    )
)


@pytest.mark.parametrize(
    "tamper, message",
    [
        # a still carries A onto A', but is not the identity mod 2
        (
            lambda a, b: (replace(a, matrix=a.matrix @ SWAP_34), b),
            "pairing a is not congruent to the identity mod 2",
        ),
        # k alone carries A onto A', and its normal onto the normal of A'
        (
            lambda a, b: (replace(a, matrix=diagonal_k(a.kpart)), b),
            "pairing a does not carry the normal of side A to minus that of side A'",
        ),
        # b pairs A with A' again, and B with nothing
        (lambda a, b: (a, replace(a, letter="b")), "side A is paired twice"),
    ],
    ids=["congruence", "normal", "involution"],
)
def test_validate_pairings_names_the_bad_letter_or_side(tamper, message):
    ps = build_side_pairings("14FF28")
    # each tampered set passes the vertex-map check of its construction
    tampered = SidePairingSet(ps.code, tamper(*ps.pairings[:2]) + ps.pairings[2:])
    with pytest.raises(ValueError) as info:
        validate_pairings(tampered)
    assert str(info.value) == message


def test_partner_involution():
    ps = build_side_pairings("14FF28")
    assert ps.transition("A")[3] == "A'"
    assert ps.transition("A'")[3] == "A"
    assert ps.transition("K'")[3] == "K"


@pytest.mark.parametrize("position", range(1, 7))
def test_every_decode_entry_maps_faces_onto_faces(position):
    """All 15 characters at one position, with F (decodable everywhere)
    at the other five.  A letter's pairing depends only on the character
    at its own position, so over the six positions this covers every
    letter of all 12^6 decodable codes: each letter's vertex map and its
    inverse carry a side's ridges onto ridges and its edges onto edges,
    which is all the ridge, edge and vertex walks ask of them.  Every
    set passes `validate_pairings`, and each letter's sign -prod(k) is
    its determinant by sympy, so no code needs either check again."""
    cell = the_24_cell()
    fixing, letters = [], 0
    for ch in CODE_ALPHABET:
        code = "F" * (position - 1) + ch + "F" * (6 - position)
        try:
            ps = build_side_pairings(code)
        except CodeError as exc:
            assert exc.position == position
            fixing.append(ch)
            continue
        validate_pairings(ps)
        for p in ps.pairings[2 * position - 2 : 2 * position]:
            letters += 1
            assert p.sign == sympy.Matrix(p.matrix.rows).det(), (code, p.letter)
            for side, partner in ((p.source, p.target), (p.target, p.source)):
                vmap = ps.transition(side.label)[4]
                assert set(vmap) == set(cell.vertices_of_side(side.label))
                assert set(vmap.values()) == set(cell.vertices_of_side(partner.label))
                # the side's vertex permutation is its map on vertex indices
                perm = ps.vertex_permutations[cell.side_index[side.label]]
                assert {
                    cell.vertices[i]: cell.vertices[j] for i, j in enumerate(perm) if j >= 0
                } == vmap
                for face in cell.ridges + cell.edges:
                    if side.label not in face.sides:
                        continue
                    image = frozenset(vmap[v] for v in face.vertices)
                    table = cell.ridge_by_vertices if len(image) == 3 else cell.edge_by_vertices
                    assert partner.label in table[image].sides, (code, p.letter, face)
    # the three characters leaving both signs of the support at +1
    assert len(fixing) == 3 and letters == 24


def test_wrong_target_side_raises_when_built():
    ps = build_side_pairings("14FF28")
    a, b = ps.pairings[:2]
    wrong = replace(a, target=b.target)
    with pytest.raises(ValueError) as info:
        SidePairingSet(ps.code, (wrong,) + ps.pairings[1:])
    assert str(info.value) == (
        "pairing a does not carry the vertices of side A onto those of side B'"
    )


def test_vertex_maps_take_the_only_matrix_vector_products(monkeypatch):
    calls = []
    apply = LorentzMatrix.apply

    def counted_apply(self, v):
        calls.append(v)
        return apply(self, v)

    monkeypatch.setattr(LorentzMatrix, "apply", counted_apply)
    ps = build_side_pairings("14FF28")
    assert len(calls) == 72
    face_cycles(ps, 1)
    face_cycles(ps, 2)
    vertex_classes(ps)
    assert len(calls) == 72
    # verify takes no others: its cusp groups are the vertex walk's cube
    # maps, and no horospherical action is read off a matrix
    del calls[:]
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["verify", "14FF28"]) == 0
    assert len(calls) == 72


def test_ridge_cycles():
    ps = build_side_pairings("14FF28")
    ridge = face_cycles(ps, 2)
    assert len(ridge) == 24
    for cyc in ridge:
        assert cyc.length == 4
        assert ps.evaluate(cyc.word) == IDENTITY
    by_start = {c.members[0]: c for c in ridge}
    assert str(by_start[("A", "C")].word) == "CAda"


def _decodable(position: int) -> list[str]:
    """The 12 characters that do not fix the (+,+) side at a 0-based
    code position."""
    p, q = GENERATOR_GROUPS[position][2]
    return [ch for ch in CODE_ALPHABET if int(ch, 16) >> (p - 1) & 1 or int(ch, 16) >> (q - 1) & 1]


def _position(side_label: str) -> int:
    """The 0-based code position whose letters pair a side: A and A' are
    a's, at position 0."""
    return GENERATOR_LETTERS.index(side_label[0].lower()) // 2


def test_ridge_cycle_has_identity_matrix_exactly_at_length_4():
    """Every pair of positions, every pair of decodable characters at
    them, F at the other four.  Every ridge cycle lies between exactly
    two positions, and a cycle between the two chosen ones has the
    identity matrix exactly when its length is 4.  `_ridge_cycles`
    shows that a cycle reads only its two positions, so this holds for
    every ridge cycle of all 12^6 decodable codes, and the gate records
    IDENTITY for a cycle of length 4 without a product."""
    seen = Counter()
    for first, second in combinations(range(6), 2):
        for x in _decodable(first):
            for y in _decodable(second):
                chars = ["F"] * 6
                chars[first], chars[second] = x, y
                ps = build_side_pairings("".join(chars))
                for cyc in face_cycles(ps, 2):
                    positions = {_position(side) for ridge in cyc.members for side in ridge}
                    assert len(positions) == 2, (chars, cyc.members)
                    if positions != {first, second}:
                        continue
                    matrix = ps.evaluate(cyc.word)
                    identity = matrix == IDENTITY
                    assert identity == (cyc.length == 4), (chars, str(cyc.word))
                    assert cyc.cycle_matrix == matrix
                    seen[cyc.length, identity] += 1
    # the 3 position pairs with disjoint supports share no ridge
    assert seen == {(4, True): 2976, (2, False): 960}


def test_ridge_presentation_requires_length_4():
    ps = build_side_pairings("14FF28")
    ridge = face_cycles(ps, 2)
    assert ridge_presentation(ridge).relators == tuple(c.word for c in ridge)
    # a cycle walked twice has the identity matrix but angle sum 4pi
    first = ridge[0]
    doubled = FaceCycle(2, first.members * 2, first.word * first.word, IDENTITY)
    with pytest.raises(ValueError, match=r"length 8, not 4: not a manifold code$"):
        ridge_presentation([doubled, *ridge[1:]])
    # the matrix check runs over every cycle before the length check
    skewed = replace(ridge[-1], cycle_matrix=ps.evaluate(Word((("a", 1),))))
    with pytest.raises(ValueError, match="non-identity matrix"):
        ridge_presentation([doubled, *ridge[1:-1], skewed])


def test_edge_classes():
    ps = build_side_pairings("14FF28")
    edges = face_cycles(ps, 1)
    assert len(edges) == 12
    assert sum(c.length for c in edges) == 96


# two census codes and the first 10 manifold codes of perfbench/data/pool.tsv
ORACLE_CODES = (
    "14FF28", "1428BD", "157CB4", "B948D6", "5C678D", "134DF8",
    "9CBA69", "ABE3C6", "71A5CF", "39FD8C", "96453B", "E1BB86",
)


def _edge_loop_words(pairing_set):
    """Every edge orbit loop as a word, in discovery order, rebuilt from
    the breadth-first tree over the edges: the word of a tree path to p
    is extended on the left by the letter leaving p."""
    cell = pairing_set.cell

    def steps(key):
        current = cell.edge_by_vertices[key]
        for side_label in current.sides:
            letter, exp, g, *_ = pairing_set.transition(side_label)
            yield (letter, exp), frozenset(g.apply(v) for v in current.vertices)

    paths: dict = {}
    for edge in cell.edges:
        key = frozenset(edge.vertices)
        if key in paths:
            continue
        paths[key] = Word(())
        for current, letter, image, new in orbit_edges(key, steps):
            step = Word.make((letter,)) * paths[current]
            if new:
                paths[image] = step
            else:
                yield paths[image].inverse() * step


@pytest.mark.parametrize("code", ORACLE_CODES)
def test_edge_loops_evaluate_to_identity(code):
    ps = build_side_pairings(code)
    assert face_cycles(ps, 1)
    loops = list(_edge_loop_words(ps))
    assert loops and all(ps.evaluate(w) == IDENTITY for w in loops)


# the first ten codes of perfbench/data/pool.tsv, in file order, whose
# verify error is a nontrivial edge orbit loop
EDGE_LOOP_CODES = (
    "A6783B", "6F28D5", "67297E", "7D39AC", "2FD3F6",
    "9B5C3F", "BD71A5", "2E4DF8", "6175E9", "97BB6F",
)


@pytest.mark.parametrize("code", EDGE_LOOP_CODES)
def test_edge_loop_message_names_the_first_nontrivial_loop(code):
    ps = build_side_pairings(code)
    with pytest.raises(ValueError) as info:
        face_cycles(ps, 1)
    first = next(w for w in _edge_loop_words(ps) if ps.evaluate(w) != IDENTITY)
    assert str(info.value) == f"edge orbit loop {first} is a nontrivial stabilizer"


def test_edge_orbits_take_one_product_per_edge_and_no_inverse(monkeypatch):
    # decoded first: decoding multiplies and inverts each letter
    manifold, looped = build_side_pairings("14FF28"), build_side_pairings("A6783B")
    calls = {"inverse": 0, "product": 0}
    inverse, product = LorentzMatrix.inverse, LorentzMatrix.__matmul__

    def counted_inverse(self):
        calls["inverse"] += 1
        return inverse(self)

    def counted_product(self, other):
        calls["product"] += 1
        return product(self, other)

    monkeypatch.setattr(LorentzMatrix, "inverse", counted_inverse)
    monkeypatch.setattr(LorentzMatrix, "__matmul__", counted_product)
    # every orbit has 8 edges: the gate counts them and multiplies nothing
    face_cycles(manifold, 1)
    assert calls == {"inverse": 0, "product": 0}
    # the first orbit of A6783B has 4 edges, on 3 sides each; its matrix
    # walk takes one product per edge of that orbit graph, at most 12,
    # up to the first nontrivial loop
    with pytest.raises(ValueError, match="^edge orbit loop lIH is a nontrivial stabilizer$"):
        face_cycles(looped, 1)
    assert calls == {"inverse": 0, "product": 5}


def test_edge_loop_walk_raises_on_an_orbit_with_trivial_stabilizer():
    # the matrix walk on an orbit of 8 edges finds no loop to name; the
    # gate hands it only orbits of another size, so reaching this error
    # would mean the link-area argument had failed
    ps = build_side_pairings("14FF28")
    with pytest.raises(ValueError) as info:
        pairing_module._raise_edge_loop(ps, 0)
    assert str(info.value) == (
        "edge orbit of 8 edges has no nontrivial loop: "
        "its stabilizer is trivial, and it should have 8 edges"
    )


def _outcome(walk, pairing_set):
    try:
        return walk(pairing_set)
    except ValueError as exc:
        return str(exc)


def test_edge_gate_matches_the_matrix_walk_on_the_pool():
    # every R and M code of the pool that passes the ridge gate: the same
    # orbits, or the same first nontrivial loop, as the matrix walk
    rows = [line.split() for line in POOL.read_text().splitlines() if not line.startswith("#")]
    verdicts = Counter()
    for code, cls, *_ in rows:
        if cls not in "MR":
            continue
        ps = build_side_pairings(code)
        try:
            ridge_presentation(face_cycles(ps, 2))
        except ValueError:
            continue
        gate = _outcome(lambda ps: face_cycles(ps, 1), ps)
        assert gate == _outcome(reference_walks.edge_orbits, ps), code
        verdicts["fails" if isinstance(gate, str) else "passes"] += 1
    assert verdicts == {"passes": 183, "fails": 420}


def _verify(code: str) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        status = main(["verify", code])
    return status, out.getvalue()


decodable_codes = st.tuples(*(st.sampled_from(_decodable(i)) for i in range(6))).map("".join)


@settings(max_examples=150, deadline=None)
@given(code=decodable_codes)
def test_verify_envelope_matches_the_reference_walks(code):
    expected = _verify(code)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(pairing_module, "_ridge_cycles", reference_walks.ridge_cycles)
        patch.setattr(pairing_module, "_edge_orbits", reference_walks.edge_orbits)
        patch.setattr(analysis_module, "vertex_classes", reference_walks.vertex_classes)
        assert _verify(code) == expected


def test_euler_characteristic():
    assert CodeAnalysis("14FF28").chi == 1
    assert CodeAnalysis("1428BD").chi == 1


def test_fundamental_group_shape():
    pres = fundamental_group(build_side_pairings("14FF28"))
    assert pres.generators == tuple("abcdefghijkl")
    assert len(pres.relators) == 24


def test_parse_census_lines():
    lines = [
        "# comment",
        "14FF28  five cusps",
        "",
        "1428BD",
        "   # indented comment",
    ]
    assert parse_census_lines(lines) == [
        (2, "14FF28", "five cusps"),
        (4, "1428BD", ""),
    ]


def test_vertex_permutations_are_built_only_past_the_ridge_gate(monkeypatch):
    built = []

    def recording(code):
        built.append(build_side_pairings(code))
        return built[-1]

    monkeypatch.setattr(analysis_module, "build_side_pairings", recording)
    with pytest.raises(ValueError, match="ridge cycle Ca"):
        CodeAnalysis("FF79DA")
    CodeAnalysis("14FF28")
    rejected, manifold = built
    assert "vertex_permutations" not in vars(rejected)
    assert "vertex_permutations" in vars(manifold)

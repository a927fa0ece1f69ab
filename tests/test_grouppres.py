"""Coset enumeration, rewriting, and presentation surgery."""

import pytest
from hypothesis import example, given, settings, strategies as st

from hyper4.filling import _cyclic_table, _lifted_meridians, default_meridians
from hyper4.grouppres import (
    GroupPresentation,
    _cyclic_canonical,
    abelianization,
    character_coset_table,
    orbit_edges,
    parse_presentation,
    quotient,
    reidemeister_schreier,
    schreier_rewrite,
    tietze_simplify,
    todd_coxeter,
)
from hyper4.pairing import build_side_pairings, fundamental_group
from hyper4.words import Word, parse_word


def _orientation_signs(pairing_set):
    return {p.letter: p.sign for p in pairing_set.pairings}


def test_orbit_edges_breadth_first():
    # a = (0 1 2), b = (0 3) on four points
    a, b = (1, 2, 0, 3), (3, 1, 2, 0)
    drawn = []

    def steps(p):
        for label, perm in (("a", a), ("b", b)):
            drawn.append((p, label))
            yield label, perm[p]

    edges = orbit_edges(0, steps)
    assert next(edges) == (0, "a", 1, True)
    assert drawn == [(0, "a")]  # each edge is yielded before the next is drawn
    assert list(edges) == [
        (0, "b", 3, True),
        (1, "a", 2, True),
        (1, "b", 1, False),
        (3, "a", 3, False),
        (3, "b", 0, False),
        (2, "a", 0, False),
        (2, "b", 2, False),
    ]


def test_abelianization_free_group():
    pres = parse_presentation("gens: a b c\n")
    ab = abelianization(pres)
    assert ab.rank == 3 and ab.torsion == ()


def test_abelianization_dihedral():
    pres = parse_presentation("gens: c e\nc^3\ne^2\nEcec\n")
    ab = abelianization(pres)
    assert (ab.rank, ab.torsion) == (0, (2,))
    assert str(ab) == "Z/2"


def test_abelianization_free_abelian():
    pres = parse_presentation("gens: a b c\nabAB\nacAC\nbcBC\n")
    ab = abelianization(pres)
    assert (ab.rank, ab.torsion) == (3, ())
    assert str(ab) == "Z^3"


def test_todd_coxeter_orders():
    assert todd_coxeter(parse_presentation("gens: a\na\n")).index == 1
    assert todd_coxeter(parse_presentation("gens: a\na^6\n")).index == 6
    assert todd_coxeter(parse_presentation("gens: c e\nc^3\ne^2\nEcec\n")).index == 6
    assert todd_coxeter(parse_presentation("gens: r s\nr^4\ns^2\nsrsr\n")).index == 8


def test_todd_coxeter_limit():
    # Z has no finite coset table over the trivial subgroup
    table = todd_coxeter(parse_presentation("gens: a\n"), limit=50)
    assert not table.complete


def test_coset_table_follow():
    d3 = parse_presentation("gens: c e\nc^3\ne^2\nEcec\n")
    table = todd_coxeter(d3)
    for relator in d3.relators:
        for coset in range(table.index):
            assert table.follow(coset, relator) == coset


def test_character_table_orientation():
    ps = build_side_pairings("14FF28")
    pres = fundamental_group(ps)
    table = character_coset_table(pres, _orientation_signs(ps))
    assert table.complete and table.index == 2


def test_character_table_rejects_inconsistent_signs():
    pres = parse_presentation("gens: a\na^3\n")
    # a^3 = 1 is incompatible with a -> -1
    with pytest.raises(ValueError):
        character_coset_table(pres, {"a": -1})


def test_schreier_rewrite_round_trip():
    ps = build_side_pairings("14FF28")
    pres = fundamental_group(ps)
    table = character_coset_table(pres, _orientation_signs(ps))
    rewritten = schreier_rewrite(table, parse_word("aa"))
    assert [name for name, _ in rewritten.letters] == ["a0", "a0"]
    # a word leaving the subgroup cannot be rewritten
    with pytest.raises(ValueError):
        schreier_rewrite(table, parse_word("e"))


def test_reidemeister_schreier_shape():
    ps = build_side_pairings("14FF28")
    pres = fundamental_group(ps)
    table = character_coset_table(pres, _orientation_signs(ps))
    sub = reidemeister_schreier(pres, table)
    # two copies of each generator, every relator at both cosets, one tree edge
    assert len(sub.generators) == 24
    assert len(sub.relators) == 2 * len(pres.relators) + 1
    assert str(abelianization(sub)) == "Z^5"


def test_quotient_appends_relators():
    pres = parse_presentation("gens: a\n")
    q = quotient(pres, [parse_word("a") ** 6])
    assert todd_coxeter(q).index == 6


def test_tietze_keeps_infinite_cyclic():
    # b dies, the conjugation relator then collapses: the group is Z, not trivial
    pres = parse_presentation("gens: a b\nb\nabA\n")
    simp = tietze_simplify(pres)
    ab = abelianization(simp)
    assert (ab.rank, ab.torsion) == (1, ())
    assert len(simp.generators) == 1
    assert simp.relators == ()


def test_tietze_preserves_abelianization():
    ps = build_side_pairings("14FF28")
    pres = fundamental_group(ps)
    simp = tietze_simplify(pres)
    a0, a1 = abelianization(pres), abelianization(simp)
    assert (a0.rank, a0.torsion) == (a1.rank, a1.torsion) == (0, (2,) * 6)
    assert len(simp.generators) <= len(pres.generators)


def _reference_tietze(pres, effort):
    """Tietze simplification that rescans every relator for each candidate."""
    gens, rels = list(pres.generators), [r.cyclic_reduce() for r in pres.relators]
    for _ in range(max(effort, 0)):
        seen, cleaned = set(), []
        for r in (r.cyclic_reduce() for r in rels):
            key = _cyclic_canonical(r)
            if not r.is_identity and key not in seen:
                seen.add(key)
                cleaned.append(r)
        rels = cleaned
        names = [[n for n, _ in r.letters] for r in rels]
        candidates = []
        for i, r in enumerate(rels):
            for name in dict.fromkeys(names[i]):
                if names[i].count(name) == 1:
                    k = sum(other.count(name) for j, other in enumerate(names) if j != i)
                    delta = k * (len(r) - 2) - len(r)
                    if delta <= 0:
                        candidates.append((delta, len(r), i, name))
        if not candidates:
            break
        _, _, i, name = min(candidates)
        j = names[i].index(name)
        rotated = rels[i].letters[j:] + rels[i].letters[:j]
        rest = Word(rotated[1:])
        sub = rest.inverse() if rotated[0][1] == 1 else rest
        image = {1: sub.letters, -1: sub.inverse().letters}
        rels = [
            Word.make(
                [x for n, e in other.letters for x in (image[e] if n == name else [(n, e)])]
            ).cyclic_reduce()
            for idx, other in enumerate(rels)
            if idx != i
        ]
        gens.remove(name)
    return GroupPresentation(tuple(gens), tuple(rels))


def test_tietze_matches_rescan_on_filled_cover():
    for n, efforts in ((3, (1000,)), (5, (10, 50, 1000)), (7, (10, 50, 1000))):
        # the filled presentation of `cover 14FF28 --cyclic n --classify-filling`
        analysis, table = _cyclic_table("14FF28", n, 10**6)
        lifted = _lifted_meridians(analysis, table, default_meridians("14FF28"))
        filled = quotient(reidemeister_schreier(analysis.presentation, table), lifted)
        for effort in efforts:
            simplified = tietze_simplify(filled, effort)
            assert simplified == _reference_tietze(filled, effort), (n, effort)
            assert len(simplified.generators) < len(filled.generators)


@st.composite
def _presentations(draw):
    names = "abcdefgh"[: draw(st.integers(1, 8))]
    letter = st.tuples(st.sampled_from(names), st.sampled_from((1, -1)))
    relators: list[Word] = []
    for _ in range(draw(st.integers(0, 12))):
        if relators and draw(st.booleans()):
            # a repeated, possibly inverted and rotated, earlier relator
            word = draw(st.sampled_from(relators))
            if draw(st.booleans()):
                word = word.inverse()
            shift = draw(st.integers(0, len(word)))
            relators.append(Word.make(word.letters[shift:] + word.letters[:shift]))
        else:
            relators.append(Word.make(draw(st.lists(letter, max_size=10))))
    return GroupPresentation(tuple(names), tuple(relators))


@settings(max_examples=300, deadline=None)
@given(_presentations(), st.sampled_from((0, 1, 2, 3, 5, 1000)))
# eliminating b makes relator 0 read AA, a rotated inverse of the later aa
@example(parse_presentation("gens: a b\nABA\naa\nb\n"), 1000)
# eliminating d drops the totals of a and b, so cBA, which is not rewritten,
# gains the candidate a: it ties the old candidate c and wins on the name
@example(parse_presentation("gens: a b c d\ndBA\ncBA\n"), 1000)
def test_tietze_matches_rescan(pres, effort):
    assert tietze_simplify(pres, effort) == _reference_tietze(pres, effort)


_cyclic_words = st.lists(st.tuples(st.sampled_from("abc"), st.sampled_from((1, -1))), max_size=10)


@given(_cyclic_words.map(Word.make))
def test_cyclic_canonical_is_shared_by_rotations_and_inverse(word):
    key = _cyclic_canonical(word)
    core = word.cyclic_reduce().letters
    inverse = word.inverse().cyclic_reduce().letters
    assert key in {w[i:] + w[:i] for w in (core, inverse) for i in range(len(w))} | {()}
    for i in range(len(word)):
        rotated = Word.make(word.letters[i:] + word.letters[:i])
        assert _cyclic_canonical(rotated) == key
        assert _cyclic_canonical(rotated.inverse()) == key


def test_presentation_text_round_trip():
    pres = parse_presentation("gens: a b\nb\nabA\n")
    assert pres == GroupPresentation(("a", "b"), (parse_word("b"), parse_word("abA")))
    spaced = parse_presentation("gens: a b\na^2 b^-3\n")
    assert str(spaced.relators[0]) == "aaBBB"


def test_parse_presentation_requires_gens_line():
    with pytest.raises(ValueError):
        parse_presentation("a^2\n")

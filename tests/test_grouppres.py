"""Coset enumeration, rewriting, and presentation surgery."""

from collections import Counter

import pytest
from hypothesis import example, given, settings, strategies as st

import reference_certificate
from reference_covers import power_meridians, written_table
from hyper4 import grouppres
from hyper4.analysis import CodeAnalysis
from hyper4.filling import fill
from hyper4.grouppres import (
    GroupPresentation,
    _cyclic_canonical,
    _enumerate,
    _least_rotation,
    _reduce,
    _tietze,
    abelianization,
    character_coset_table,
    dihedral_image,
    dihedral_table,
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


def test_abelianization_sums_each_relators_exponents(monkeypatch):
    # one pass over a relator's letters gives its exponent-sum row
    seen = []
    monkeypatch.setattr(grouppres, "cokernel_invariants", lambda rows, n: seen.append((rows, n)))
    abelianization(parse_presentation("gens: a b c\naabA\nccBcb\n"))
    assert seen == [([[1, 1, 0], [0, 0, 3]], 3)]


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


def test_coset_table_permutation_follows_each_coset():
    table = todd_coxeter(parse_presentation("gens: r s\nr^4\ns^2\nsrsr\n"))
    for text in ("1", "r", "S", "rrS", "sRsrr"):
        word = parse_word(text)
        assert table.permutation(word) == tuple(
            table.follow(c, word) for c in range(table.index)
        )
    with pytest.raises(ValueError):
        todd_coxeter(parse_presentation("gens: a\n"), limit=5).permutation(parse_word("a"))


# every presentation this file builds by text; the infinite ones stop at the limit
PRESENTATION_TEXTS = (
    "gens: a\na\n",
    "gens: a\na^6\n",
    "gens: c e\nc^3\ne^2\nEcec\n",
    "gens: r s\nr^4\ns^2\nsrsr\n",
    "gens: a\n",
    "gens: a b c\n",
    "gens: a b c\nabAB\nacAC\nbcBC\n",
    "gens: a\na^3\n",
    "gens: a b\nb\nabA\n",
    "gens: a b\nABA\naa\nb\n",
    "gens: a b c d\ndBA\ncBA\n",
    "gens: a b\na^2 b^-3\n",
)


def _assert_lifted_table_is_direct(pres, limit=2000):
    # the enumeration over pres itself, without Tietze, is the oracle
    lifted, direct = todd_coxeter(pres, limit), _enumerate(pres, limit)
    assert (lifted.complete, lifted.rows) == (direct.complete, direct.rows), pres
    assert lifted.generators == pres.generators
    return lifted


@pytest.mark.parametrize("text", PRESENTATION_TEXTS)
def test_lifted_table_matches_direct_enumeration(text):
    _assert_lifted_table_is_direct(parse_presentation(text))


def test_lifted_table_matches_direct_enumeration_on_the_cyclic_fills():
    analysis = CodeAnalysis("14FF28")
    for n in range(1, 16):
        meridians = power_meridians("14FF28", n)
        table = _assert_lifted_table_is_direct(fill(analysis, meridians), 10**6)
        assert table.index == 2 * n


@st.composite
def _padded_finite_groups(draw):
    """Z/m or the dihedral group of order 2m, with redundant generators
    x = w for words w in the generators before x, relators rotated or
    inverted at random, and the generator list shuffled."""
    m = draw(st.integers(1, 6))
    if draw(st.booleans()):
        gens, relators = ["r"], [parse_word("r") ** m]
    else:
        gens = ["r", "s"]
        relators = [parse_word("r") ** m, parse_word("ss"), parse_word("srsr")]
    for name in "tuvw"[: draw(st.integers(0, 4))]:
        letter = st.tuples(st.sampled_from(gens), st.sampled_from((1, -1)))
        word = Word.make(draw(st.lists(letter, max_size=5)))
        relator = (Word(((name, 1),)) * word.inverse()).letters
        shift = draw(st.integers(0, len(relator) - 1))
        relator = Word.make(relator[shift:] + relator[:shift])
        relators.append(relator.inverse() if draw(st.booleans()) else relator)
        gens.append(name)
    gens = draw(st.permutations(gens))
    relators = draw(st.permutations(relators))
    return GroupPresentation(tuple(gens), tuple(relators))


@settings(max_examples=200, deadline=None)
@given(_padded_finite_groups())
def test_lifted_table_matches_direct_enumeration_on_padded_groups(pres):
    assert _assert_lifted_table_is_direct(pres, 10**5).complete


def test_subgroup_enumeration_in_d4():
    d4 = parse_presentation("gens: r s\nr^4\ns^2\nsrsr\n")
    r, s = parse_word("r"), parse_word("s")
    assert len(_enumerate(d4, 100, [r]).rows) == 2
    assert len(_enumerate(d4, 100, [s]).rows) == 4
    assert len(_enumerate(d4, 100, [r, s]).rows) == 1
    assert len(_enumerate(d4, 100, [r**2]).rows) == 4
    # the subgroup is scanned at coset 0, so it fixes coset 0
    table = _enumerate(d4, 100, [s])
    assert table.follow(0, s) == 0 and table.follow(0, r) != 0
    assert not _enumerate(d4, 3, [s]).complete


@pytest.mark.parametrize("n", range(1, 13))
def test_dihedral_table_is_the_enumerated_table(n):
    # rotation and reflection, and two reflections
    rs = parse_presentation(f"gens: r s\nr^{n}\ns^2\nsrsr\n")
    assert dihedral_table(rs.generators, {"r": (1, 0), "s": (0, 1)}, n) == todd_coxeter(rs)
    ab = parse_presentation(f"gens: b a\naa\nbb\n{'ab' * n}\n")
    images = {"a": (0, 1), "b": (1, 1)}
    assert dihedral_table(ab.generators, images, n) == todd_coxeter(ab)
    # a redundant generator sent to r^-3, and images given outside 0..n-1
    rt = parse_presentation(f"gens: t r s\nr^{n}\ns^2\nsrsr\nrrrt\n")
    images = {"t": (-3, 0), "r": (1 + n, 0), "s": (2 * n, 1)}
    assert dihedral_table(rt.generators, images, n) == todd_coxeter(rt)


def test_dihedral_image_multiplies_in_d_infinity():
    images = {"r": (1, 0), "s": (0, 1), "t": (5, 1)}
    assert dihedral_image(images, parse_word("")) == (0, 0)
    assert dihedral_image(images, parse_word("rrR")) == (1, 0)
    assert dihedral_image(images, parse_word("sr")) == (-1, 1)
    assert dihedral_image(images, parse_word("srsr")) == (0, 0)
    assert dihedral_image(images, parse_word("T")) == (5, 1)
    assert dihedral_image(images, parse_word("st")) == (-5, 0)


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


def _word_canonical(word):
    """The least rotation of a cyclically reduced word or of its inverse,
    over (name, exponent) letters, by brute force."""
    return min(_brute_least_rotation(word.letters), _brute_least_rotation(word.inverse().letters))


def _reference_tietze(pres):
    """Tietze simplification that rescans every relator for each candidate,
    run until no relator has one."""
    gens, rels = list(pres.generators), [r.cyclic_reduce() for r in pres.relators]
    while True:
        seen, cleaned = set(), []
        for r in (r.cyclic_reduce() for r in rels):
            key = _word_canonical(r)
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


def _word_tietze(pres):
    """The incremental pass of `_tietze` on (name, exponent) letters, with
    Counter name counts, a name -> slots index and the brute-force
    canonical form: the same selections and rewrites, written on Words."""
    gens = list(pres.generators)
    eliminated = []
    size = len(pres.relators)
    words, counts, keys = [None] * size, [None] * size, [None] * size
    totals = Counter()
    occurs = {name: set() for name in gens}
    holder, best_of, stale, moved = {}, {}, set(), set()

    def place(slot, word):
        words[slot] = word
        counts[slot] = Counter(name for name, _ in word.letters)
        totals.update(counts[slot])
        for name in counts[slot]:
            occurs[name].add(slot)
        moved.update(counts[slot])
        stale.add(slot)

    def clear(slot):
        totals.subtract(counts[slot])
        for name in counts[slot]:
            occurs[name].discard(slot)
        moved.update(counts[slot])
        stale.add(slot)
        if keys[slot] is not None:
            del holder[keys[slot]]
            keys[slot] = None
        words[slot] = None

    for slot, r in enumerate(pres.relators):
        place(slot, r.cyclic_reduce())
    touched = range(size)
    while True:
        for slot in touched:
            word = words[slot]
            if word.is_identity:
                clear(slot)
                continue
            key = _word_canonical(word)
            other = holder.get(key)
            if other is not None:
                if other < slot:
                    clear(slot)
                    continue
                clear(other)
            keys[slot] = key
            holder[key] = slot
        for name in moved:
            stale.update(occurs[name])
        moved.clear()
        for slot in stale:
            best_of.pop(slot, None)
            word = words[slot]
            if word is None:
                continue
            length = len(word)
            candidates = [
                ((totals[name] - 1) * (length - 2) - length, length, slot, name)
                for name, cnt in counts[slot].items()
                if cnt == 1
            ]
            candidates = [c for c in candidates if c[0] <= 0]
            if candidates:
                best_of[slot] = min(candidates)
        stale.clear()
        if not best_of:
            break
        _, _, i, name = min(best_of.values())
        r = words[i]
        j = next(idx for idx, (n, _) in enumerate(r.letters) if n == name)
        rotated = r.letters[j:] + r.letters[:j]
        rest = Word(rotated[1:])
        substitution = rest.inverse() if rotated[0][1] == 1 else rest
        eliminated.append((name, substitution))
        image = {1: substitution.letters, -1: substitution.inverse().letters}
        clear(i)
        touched = sorted(occurs[name])
        for slot in touched:
            other = words[slot]
            clear(slot)
            letters = [x for n, e in other.letters for x in (image[e] if n == name else [(n, e)])]
            place(slot, Word.make(letters).cyclic_reduce())
        gens.remove(name)
    simplified = GroupPresentation(tuple(gens), tuple(w for w in words if w is not None))
    return simplified, eliminated


def _filled_cover(n):
    """The filled presentation of `cover 14FF28 --cyclic n --classify-filling`."""
    analysis, table = written_table("14FF28", n)
    return reference_certificate.filled_cover(analysis, table, "14FF28")[0]


def test_tietze_matches_rescan_on_filled_cover():
    for n in (3, 5, 7):
        filled = _filled_cover(n)
        simplified = tietze_simplify(filled)
        assert simplified == _reference_tietze(filled), n
        assert len(simplified.generators) < len(filled.generators)


def test_tietze_matches_the_word_pass_on_the_fills():
    # the eliminations feed the lift of `todd_coxeter`, so they are compared too
    for n in range(1, 16):
        filled = _filled_cover(n)
        assert _tietze(filled) == _word_tietze(filled), n


@pytest.mark.parametrize("n", [*range(1, 16), 51])
def test_tietze_alone_trivializes_the_filled_covers(n):
    # every one of the 24n Schreier generators is eliminated, and every
    # relator reduces to the identity or to a duplicate
    filled = _filled_cover(n)
    assert len(filled.generators) == 24 * n
    assert tietze_simplify(filled) == GroupPresentation((), ())


@st.composite
def _presentations(draw):
    count = draw(st.integers(1, 8))
    if draw(st.booleans()):
        names = tuple("abcdefgh"[:count])
    else:
        # shuffled names whose string order (x10 < x9) is neither their
        # numeric order nor their position
        names = tuple(draw(st.permutations([f"x{i}" for i in range(1, 12)]))[:count])
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
    return GroupPresentation(names, tuple(relators))


@settings(max_examples=300, deadline=None)
@given(_presentations())
# eliminating b makes relator 0 read AA, a rotated inverse of the later aa
@example(parse_presentation("gens: a b\nABA\naa\nb\n"))
# eliminating d drops the totals of a and b, so cBA, which is not rewritten,
# gains the candidate a: it ties the old candidate c and wins on the name
@example(parse_presentation("gens: a b c d\ndBA\ncBA\n"))
def test_tietze_matches_rescan(pres):
    assert tietze_simplify(pres) == _reference_tietze(pres)
    assert _tietze(pres) == _word_tietze(pres)


@settings(max_examples=300, deadline=None)
@given(_presentations())
def test_tietze_result_is_a_fixed_point(pres):
    simplified = tietze_simplify(pres)
    again, eliminated = _tietze(simplified)
    assert again == simplified
    assert eliminated == []


# words of signed ranks, as `_tietze` encodes them
_cyclic_words = st.lists(st.sampled_from((1, -1, 2, -2, 3, -3)), max_size=10).map(_reduce)


def _brute_least_rotation(letters):
    return min((letters[i:] + letters[:i] for i in range(len(letters))), default=())


@given(_cyclic_words)
def test_cyclic_canonical_is_shared_by_rotations_and_inverse(word):
    key = _cyclic_canonical(word)
    inverse = tuple(-x for x in reversed(word))
    assert key == min(_brute_least_rotation(word), _brute_least_rotation(inverse))
    for i in range(len(word)):
        rotated = word[i:] + word[:i]
        assert _cyclic_canonical(rotated) == key
        assert _cyclic_canonical(tuple(-x for x in reversed(rotated))) == key


def test_reduce_is_free_then_cyclic_reduction():
    assert _reduce((1, 2, -2, 3, -1)) == (3,)
    assert _reduce((2, 1, -1, -2)) == ()
    assert _reduce((-3, 1, 2, 3)) == (1, 2)
    assert _reduce((1, 2, -1, -3)) == (1, 2, -1, -3)


# two letters and their inverses, unreduced, make repeated and periodic words likely
_short_letters = st.lists(st.sampled_from((1, -1, 2, -2)), max_size=14)


@settings(max_examples=500)
@given(_short_letters.map(tuple))
@example((1, 2, 1, 2))
@example((1,) * 6)
def test_least_rotation_is_the_rotation_minimum(letters):
    assert _least_rotation(letters) == _brute_least_rotation(letters)


def test_presentation_text_round_trip():
    pres = parse_presentation("gens: a b\nb\nabA\n")
    assert pres == GroupPresentation(("a", "b"), (parse_word("b"), parse_word("abA")))
    spaced = parse_presentation("gens: a b\na^2 b^-3\n")
    assert str(spaced.relators[0]) == "aaBBB"


def test_parse_presentation_requires_gens_line():
    with pytest.raises(ValueError):
        parse_presentation("a^2\n")

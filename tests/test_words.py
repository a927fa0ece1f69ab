"""Free reduction and the compact word syntax."""

import pytest
from hypothesis import given, strategies as st

from hyper4.words import EMPTY_WORD, Word, parse_word


def test_make_free_reduces():
    w = Word.make((("a", 1), ("b", 1), ("b", -1), ("a", -1)))
    assert w == EMPTY_WORD
    assert w.is_identity


def test_parse_compact():
    w = parse_word("AbC")
    assert w.letters == (("a", -1), ("b", 1), ("c", -1))
    assert str(w) == "AbC"
    assert parse_word("1") == EMPTY_WORD
    assert parse_word("") == EMPTY_WORD


def test_parse_rejects_junk():
    with pytest.raises(ValueError):
        parse_word("a2")


def test_product_and_inverse():
    u = parse_word("ab")
    v = parse_word("Ba")
    assert str(u * v) == "aa"
    assert (u * u.inverse()).is_identity
    assert str(u.inverse()) == "BA"


def test_powers():
    c = parse_word("c")
    assert str(c**3) == "ccc"
    assert str(c**-2) == "CC"
    assert (c**0).is_identity


def test_cyclic_reduce():
    w = parse_word("AbaB")  # not cyclically reduced: starts A ... ends B? it is
    assert w.cyclic_reduce() == w
    v = parse_word("Aba")
    assert str(v.cyclic_reduce()) == "b"


def _trim_pairs(letters):
    """Cyclic reduction one cancelling pair of end letters at a time."""
    letters = list(letters)
    while len(letters) >= 2 and letters[0][0] == letters[-1][0] and letters[0][1] == -letters[-1][1]:
        letters = letters[1:-1]
    return tuple(letters)


_raw_letters = st.lists(st.tuples(st.sampled_from("abc"), st.sampled_from((1, -1))), max_size=6)


@given(_raw_letters, _raw_letters, st.booleans())
def test_cyclic_reduce_trims_cancelling_ends(outer, inner, reduce_first):
    # outer * inner * outer^-1, freely reduced or not
    letters = outer + inner + [(name, -exp) for name, exp in reversed(outer)]
    word = Word.make(letters) if reduce_first else Word(tuple(letters))
    reduced = word.cyclic_reduce()
    assert reduced.letters == _trim_pairs(word.letters)
    assert reduced.cyclic_reduce() == reduced
    if len(reduced) >= 2:
        (first, e), (last, f) = reduced.letters[0], reduced.letters[-1]
        assert (first, e) != (last, -f)
    if reduced == word:
        assert reduced is word


@given(st.text(alphabet="abAB", max_size=12))
def test_word_times_inverse_is_identity(text):
    w = parse_word(text)
    assert (w * w.inverse()).is_identity
    assert (w.inverse() * w).is_identity


@given(st.text(alphabet="abcABC", max_size=10), st.text(alphabet="abcABC", max_size=10))
def test_product_associates_with_reduction(s, t):
    u, v = parse_word(s), parse_word(t)
    # reduction of the concatenation equals the product of reductions
    assert u * v == parse_word(s + t)


_letters = st.lists(st.tuples(st.sampled_from("ab"), st.sampled_from((1, -1))), max_size=6)


@given(_letters.map(Word.make), st.integers(-6, 6))
def test_power_is_repeated_product(w, n):
    base = w if n >= 0 else w.inverse()
    expected = EMPTY_WORD
    for _ in range(abs(n)):
        expected = expected * base
    assert w**n == expected

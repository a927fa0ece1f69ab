"""Integral Lorentz arithmetic against hand-checked values, and the
unrolled products against a naive product written here."""

from fractions import Fraction
from functools import cache
from operator import mul

import pytest
import sympy
from hypothesis import given, strategies as st

from hyper4.cell24 import the_24_cell
from hyper4.lorentz import (
    IDENTITY,
    LorentzMatrix,
    LorentzVector,
    diagonal_k,
    lorentz_product,
    reflection_matrix,
)
from hyper4.pairing import CODE_ALPHABET, CodeError, build_side_pairings


def _group_facts(m: LorentzMatrix) -> tuple[bool, bool, bool, int]:
    """(M^T J M = J, (5,5) > 0, M = I mod 2, det M), by sympy alone."""
    a = sympy.Matrix(m.rows)
    j = sympy.diag(1, 1, 1, 1, -1)
    return (
        a.T * j * a == j,
        a[4, 4] > 0,
        all(x % 2 == 0 for x in a - sympy.eye(5)),
        int(a.det()),
    )


def test_lorentz_product_signature():
    assert lorentz_product((1, 0, 0, 0, 0), (1, 0, 0, 0, 0)) == 1
    assert lorentz_product((0, 0, 0, 0, 1), (0, 0, 0, 0, 1)) == -1
    assert lorentz_product((1, 2, 3, 4, 5), (5, 4, 3, 2, 1)) == 5 + 8 + 9 + 8 - 5


def test_vector_predicates():
    assert LorentzVector((1, 0, 0, 0, 1)).is_light()
    assert LorentzVector((1, 1, 1, 1, 2)).is_light()
    assert not LorentzVector((1, 0, 0, 0, 2)).is_light()
    # light vectors point forward by convention
    assert not LorentzVector((1, 0, 0, 0, -1)).is_light()
    assert LorentzVector((1, 1, 0, 0, 1)).is_unit_spacelike()
    assert not LorentzVector((1, 0, 0, 0, 1)).is_unit_spacelike()


def test_reflection_in_unit_spacelike_vector():
    # worked example: reflect in the side with center (1,1,0,0)
    v = LorentzVector((1, 1, 0, 0, 1))
    r = reflection_matrix(v)
    assert r.rows == (
        (-1, -2, 0, 0, 2),
        (-2, -1, 0, 0, 2),
        (0, 0, 1, 0, 0),
        (0, 0, 0, 1, 0),
        (-2, -2, 0, 0, 3),
    )
    assert r @ r == IDENTITY
    assert r.apply(v) == LorentzVector((-1, -1, 0, 0, -1))


def test_reflection_membership():
    # I - 2*v*(Jv)^T differs from the identity by even entries only
    v = LorentzVector((1, 1, 0, 0, 1))
    assert _group_facts(reflection_matrix(v)) == (True, True, True, -1)


def test_coordinate_swap_not_congruence_two():
    swap = LorentzMatrix(
        (
            (0, 1, 0, 0, 0),
            (1, 0, 0, 0, 0),
            (0, 0, 1, 0, 0),
            (0, 0, 0, 1, 0),
            (0, 0, 0, 0, 1),
        )
    )
    assert _group_facts(swap) == (True, True, False, -1)


def test_diagonal_k():
    d = diagonal_k((-1, 1, 1, 1))
    assert d.apply(LorentzVector((1, 2, 3, 4, 5))) == LorentzVector((-1, 2, 3, 4, 5))
    assert _group_facts(d) == (True, True, True, -1)


def test_inverse_uses_form():
    v = LorentzVector((0, 1, 1, 0, 1))
    r = reflection_matrix(v)
    m = r @ diagonal_k((1, -1, 1, -1))
    assert m @ m.inverse() == IDENTITY
    assert m.inverse() @ m == IDENTITY


def test_inverse_rejects_non_lorentzian():
    bad = LorentzMatrix(
        (
            (1, 1, 0, 0, 0),
            (0, 1, 0, 0, 0),
            (0, 0, 1, 0, 0),
            (0, 0, 0, 1, 0),
            (0, 0, 0, 0, 1),
        )
    )
    with pytest.raises(ValueError):
        bad.inverse()


@given(
    st.lists(
        st.tuples(st.sampled_from(range(24)), st.booleans()), min_size=1, max_size=6
    )
)
def test_random_products_stay_in_group(picks):
    # products of pairing-style generators stay integral Lorentz with det +-1
    from hyper4.pairing import build_side_pairings

    gens = [p.matrix for p in build_side_pairings("14FF28").pairings]
    m = IDENTITY
    for index, invert in picks:
        g = gens[index % len(gens)]
        m = m @ (g.inverse() if invert else g)
    lorentzian, positive, congruence_two, det = _group_facts(m)
    assert lorentzian and positive and congruence_two
    assert det in (1, -1)


def _naive_apply(a, v):
    return tuple(sum(map(mul, row, v)) for row in a)


def _naive_product(a, b):
    cols = tuple(zip(*b))
    return tuple(tuple(sum(map(mul, row, col)) for col in cols) for row in a)


@cache
def _decode_letters() -> tuple:
    """(pairing, inverse) for the 144 letters of the decode table: each
    decodable character at each position, with F at the other five."""
    letters = []
    for position in range(6):
        for ch in CODE_ALPHABET:
            try:
                ps = build_side_pairings("F" * position + ch + "F" * (5 - position))
            except CodeError:
                continue
            for p in ps.pairings[2 * position : 2 * position + 2]:
                letters.append((p, ps.transitions[ps.cell.side_index[p.target.label]][2]))
    return tuple(letters)


def _letter_matrices() -> list[LorentzMatrix]:
    """The 144 letters and their inverses."""
    return [m for p, inverse in _decode_letters() for m in (p.matrix, inverse)]


def test_decode_letters_match_the_naive_product():
    letters = _decode_letters()
    assert len(letters) == 144
    j = (1, 1, 1, 1, -1)
    for p, inverse in letters:
        k = diagonal_k(p.kpart).rows
        assert p.matrix.rows == _naive_product(p.target.reflection().rows, k), p
        # the inverse J M^T J, entry by entry
        m = p.matrix.rows
        assert inverse.rows == tuple(
            tuple(j[r] * m[c][r] * j[c] for c in range(5)) for r in range(5)
        ), p
        assert _naive_product(m, inverse.rows) == IDENTITY.rows


def test_unrolled_product_matches_the_naive_product_on_all_letter_pairs():
    matrices = _letter_matrices()
    assert len(matrices) == 288
    for x in matrices:
        for y in matrices:
            product = x @ y
            assert type(product) is LorentzMatrix
            assert product.rows == _naive_product(x.rows, y.rows), (x, y)
    # an unchecked product equals, and hashes as, the checked matrix
    x, y = matrices[:2]
    checked = LorentzMatrix(_naive_product(x.rows, y.rows))
    assert x @ y == checked and hash(x @ y) == hash(checked)


def test_unrolled_apply_matches_the_naive_product_on_vertices_and_normals():
    cell = the_24_cell()
    points = list(cell.vertices) + [side.normal for side in cell.sides]
    assert len(points) == 48
    for m in _letter_matrices():
        for v in points:
            image = m.apply(v)
            assert type(image) is LorentzVector
            assert image.coords == _naive_apply(m.rows, v.coords), (m, v)
            assert image == LorentzVector(image.coords)


def test_values_entering_are_still_checked():
    with pytest.raises(ValueError, match="expected a 5x5 matrix"):
        LorentzMatrix(IDENTITY.rows[:4])
    with pytest.raises(ValueError, match="expected a 5x5 matrix"):
        LorentzMatrix(tuple(row[:4] for row in IDENTITY.rows))
    with pytest.raises(ValueError, match="coordinates must be integers"):
        LorentzVector((1, 0, 0, 0, Fraction(1, 2)))
    with pytest.raises(ValueError, match="coordinates must be integers"):
        LorentzVector((1.0, 0, 0, 0, 1))
    with pytest.raises(ValueError, match="expected 5 coordinates"):
        LorentzVector((1, 0, 0, 1))

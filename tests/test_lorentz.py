"""Integral Lorentz arithmetic against hand-checked values."""

import pytest
import sympy
from hypothesis import given, strategies as st

from hyper4.lorentz import (
    IDENTITY,
    LorentzMatrix,
    LorentzVector,
    diagonal_k,
    lorentz_product,
    reflection_matrix,
)


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

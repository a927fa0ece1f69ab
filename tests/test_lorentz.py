"""Integral Lorentz arithmetic against hand-checked values."""

import pytest
from hypothesis import given, strategies as st

from hyper4.lorentz import (
    IDENTITY,
    LorentzMatrix,
    LorentzVector,
    diagonal_k,
    lorentz_product,
    membership_checks,
    orientation_sign,
    reflection_matrix,
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
    assert r.apply(v) == -v


def test_reflection_membership():
    # I - 2*v*(Jv)^T differs from the identity by even entries only
    v = LorentzVector((1, 1, 0, 0, 1))
    checks = membership_checks(reflection_matrix(v))
    assert checks.lorentzian
    assert checks.positive
    assert checks.congruence_two
    assert checks.determinant == -1


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
    checks = membership_checks(swap)
    assert checks.lorentzian and checks.positive
    assert not checks.congruence_two
    assert checks.determinant == -1


def test_diagonal_k():
    d = diagonal_k((-1, 1, 1, 1))
    assert d.apply(LorentzVector((1, 2, 3, 4, 5))) == LorentzVector((-1, 2, 3, 4, 5))
    assert orientation_sign(d) == -1


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
    checks = membership_checks(m)
    assert checks.lorentzian
    assert checks.positive
    assert checks.congruence_two
    assert checks.determinant in (1, -1)

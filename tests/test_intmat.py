"""Integer matrix normal forms cross-checked against sympy."""

import sympy
from sympy.matrices.normalforms import smith_normal_form as sympy_snf
from hypothesis import given, settings, strategies as st

from hyper4.intmat import (
    hermite_row_basis,
    smith_normal_form,
    solve_integer,
)


def _mat_mul(a, b):
    return [
        [sum(a[i][k] * b[k][j] for k in range(len(b))) for j in range(len(b[0]))]
        for i in range(len(a))
    ]


def _unimodular(m):
    return abs(sympy.Matrix(m).det()) == 1


def test_smith_example():
    a = [[2, 4, 4], [-6, 6, 12], [10, 4, 16]]
    d, u, v = smith_normal_form(a)
    assert _mat_mul(_mat_mul(u, a), v) == d
    assert _unimodular(u) and _unimodular(v)
    assert [d[i][i] for i in range(3)] == [2, 2, 156]


def test_smith_zero_matrix():
    d, u, v = smith_normal_form([[0, 0], [0, 0]])
    assert [d[i][i] for i in range(2)] == [0, 0]
    assert _unimodular(u) and _unimodular(v)


small_ints = st.integers(min_value=-9, max_value=9)


@settings(max_examples=60, deadline=None)
@given(
    st.integers(min_value=1, max_value=4),
    st.integers(min_value=1, max_value=4),
    st.data(),
)
def test_smith_matches_sympy(rows, cols, data):
    a = [
        [data.draw(small_ints) for _ in range(cols)]
        for _ in range(rows)
    ]
    d, u, v = smith_normal_form(a)
    assert _mat_mul(_mat_mul(u, a), v) == d
    assert _unimodular(u) and _unimodular(v)
    mine = sorted(abs(d[i][i]) for i in range(min(rows, cols)) if d[i][i] != 0)
    sm = sympy_snf(sympy.Matrix(a), domain=sympy.ZZ)
    theirs = sorted(
        abs(int(sm[i, i])) for i in range(min(sm.shape)) if sm[i, i] != 0
    )
    assert mine == theirs


def test_hermite_row_basis_canonical():
    # two generating sets of the same lattice reduce to one basis
    a = hermite_row_basis([[2, 0, 0], [0, 3, 0], [2, 3, 0]])
    b = hermite_row_basis([[2, 3, 0], [2, 0, 0], [4, 3, 0]])
    assert a == b == [[2, 0, 0], [0, 3, 0]]


def test_hermite_full_rank():
    basis = hermite_row_basis([[1, 2, 3], [0, 1, 4], [0, 0, 2]])
    assert len(basis) == 3
    assert basis[0][0] > 0 and basis[1][1] > 0 and basis[2][2] > 0


def test_solve_integer_solves():
    a = [[2, 0], [0, 3]]
    assert solve_integer(a, [4, 9]) == [2, 3]
    assert solve_integer(a, [1, 0]) is None  # 2x = 1 has no integer solution


def test_solve_integer_underdetermined():
    sol = solve_integer([[1, 1]], [5])
    assert sol is not None
    assert sol[0] + sol[1] == 5


def test_solve_integer_inconsistent():
    assert solve_integer([[0, 0]], [3]) is None


@settings(max_examples=40, deadline=None)
@given(
    st.lists(st.lists(small_ints, min_size=3, max_size=3), min_size=2, max_size=3),
    st.lists(small_ints, min_size=3, max_size=3),
)
def test_solve_integer_verifies(rows, x):
    a = rows
    rhs = [sum(r[j] * x[j] for j in range(3)) for r in a]
    sol = solve_integer(a, rhs)
    assert sol is not None
    assert [sum(r[j] * sol[j] for j in range(3)) for r in a] == rhs

"""Integer matrix normal forms cross-checked against sympy."""

from pathlib import Path

import sympy
from sympy.matrices.normalforms import smith_normal_form as sympy_snf
from hypothesis import given, settings, strategies as st

from hyper4 import flatgroups
from hyper4.analysis import CodeAnalysis
from hyper4.grouppres import AbelianInvariants, cokernel_invariants
from hyper4.intmat import (
    eliminate_unit_pivots,
    hermite_row_basis,
    smith_normal_form,
    solve_integer,
)

POOL = Path(__file__).parent.parent / "perfbench" / "data" / "pool.tsv"


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


def _invariants(diagonal, n):
    nonzero = sorted(abs(int(x)) for x in diagonal if x != 0)
    return AbelianInvariants(n - len(nonzero), tuple(x for x in nonzero if x > 1))


def _dense_invariants(rows, n):
    d, _, _ = smith_normal_form(rows)
    return _invariants([d[i][i] for i in range(min(len(rows), n))], n)


# mostly 0 and +-1, as in exponent-sum rows, and some entries up to +-6
sparse_entries = st.one_of(st.sampled_from((0, 0, 0, 1, -1)), st.integers(-6, 6))


@settings(max_examples=100, deadline=None)
@given(
    st.integers(min_value=1, max_value=30),
    st.integers(min_value=1, max_value=15),
    st.data(),
)
def test_cokernel_matches_the_dense_and_sympy_smith_forms(rows, cols, data):
    zero_rows = data.draw(st.sets(st.integers(0, rows - 1)))
    zero_cols = data.draw(st.sets(st.integers(0, cols - 1)))
    a = [
        [0 if i in zero_rows or j in zero_cols else data.draw(sparse_entries) for j in range(cols)]
        for i in range(rows)
    ]
    got = cokernel_invariants(a, cols)
    assert got == _dense_invariants(a, cols)
    sm = sympy_snf(sympy.Matrix(a), domain=sympy.ZZ)
    assert got == _invariants([sm[i, i] for i in range(min(sm.shape))], cols)
    units, rest = eliminate_unit_pivots(a)
    assert all(x not in (1, -1) for row in rest for x in row)
    assert all(any(row) for row in rest) and all(any(col) for col in zip(*rest))


def test_cokernel_of_no_rows_is_free():
    assert cokernel_invariants([], 3) == AbelianInvariants(3, ())
    assert cokernel_invariants([[0, 0, 0]], 3) == AbelianInvariants(3, ())
    assert cokernel_invariants([[2, 0], [0, 1]], 2) == AbelianInvariants(0, (2,))


def test_cokernel_matches_the_dense_smith_form_on_the_pool(monkeypatch):
    # the presentation rows of every pool manifold, and the H1 rows of each
    # of its 928 cusps' flat groups (and of the 10 reference groups, when
    # they are built first here), give the same invariants both ways
    recorded = []

    def recording(rows, n):
        recorded.append((rows, n))
        return cokernel_invariants(rows, n)

    monkeypatch.setattr(flatgroups, "cokernel_invariants", recording)
    codes = [
        line.split()[0]
        for line in POOL.read_text().splitlines()
        if not line.startswith("#") and line.split()[1] == "M"
    ]
    assert len(codes) == 183
    for code in codes:
        pres = CodeAnalysis(code).presentation
        gens = pres.generators
        recorded.append(([[r.exponent_sum(x) for x in gens] for r in pres.relators], len(gens)))
    assert len(recorded) >= 183 + 928
    for rows, n in recorded:
        assert cokernel_invariants(rows, n) == _dense_invariants(rows, n)

"""Integer matrix normal forms cross-checked against sympy."""

import random
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
    in_row_span,
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


def test_hermite_row_basis_reduces_in_pivot_order():
    # reducing the last pivot's column first let the first pivot's step
    # undo it: the basis came out [[1, 0, -6], [0, 1, 4], [0, 0, 5]]
    basis = hermite_row_basis([[-5, -5, 5], [2, 4, -1], [1, 2, 2], [5, -6, -4]])
    assert basis == [[1, 0, 4], [0, 1, 4], [0, 0, 5]]
    assert hermite_row_basis(basis) == basis


def _is_hermite(basis):
    pivots = [next(k for k, x in enumerate(row) if x) for row in basis]
    assert pivots == sorted(set(pivots))
    for i, (row, col) in enumerate(zip(basis, pivots)):
        assert row[col] > 0
        assert all(0 <= basis[above][col] < row[col] for above in range(i))


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.lists(small_ints, min_size=3, max_size=3), min_size=1, max_size=5),
    st.lists(
        st.tuples(st.integers(0, 4), st.integers(0, 4), st.integers(-3, 3)), max_size=6
    ),
    st.randoms(use_true_random=False),
)
def test_hermite_row_basis_is_canonical(rows, moves, order):
    # the basis is in Hermite form, it is its own basis, and another
    # generating set of the same lattice (elementary row moves, a shuffle
    # and the basis rows appended) gives the same one
    basis = hermite_row_basis(rows)
    _is_hermite(basis)
    assert hermite_row_basis(basis) == basis
    other = [list(r) for r in rows]
    for i, j, c in moves:
        i, j = i % len(other), j % len(other)
        if i != j:
            other[i] = [a + c * b for a, b in zip(other[i], other[j])]
    other += [list(r) for r in basis]
    order.shuffle(other)
    assert hermite_row_basis(other) == basis


# integral matrices of orders 2, 3, 4 and 6 in GL(3, Z)
FINITE_ORDER = {
    2: ((-1, 0, 0), (0, -1, 0), (0, 0, 1)),
    3: ((0, -1, 0), (1, -1, 0), (0, 0, 1)),
    4: ((0, -1, 0), (1, 0, 0), (0, 0, 1)),
    6: ((1, -1, 0), (1, 0, 0), (0, 0, 1)),
}


def _identity3():
    return [[int(i == j) for j in range(3)] for i in range(3)]


def _elementary(moves):
    """A product of elementary matrices I + c E_ij, and its inverse."""
    p, p_inv = _identity3(), _identity3()
    for i, j, c in moves:
        if i != j:
            e, e_inv = _identity3(), _identity3()
            e[i][j], e_inv[i][j] = c, -c
            p, p_inv = _mat_mul(e, p), _mat_mul(p_inv, e_inv)
    return p, p_inv


@settings(max_examples=200, deadline=None)
@given(
    st.sampled_from(sorted(FINITE_ORDER)),
    st.lists(st.tuples(st.integers(0, 2), st.integers(0, 2), st.integers(-2, 2)), max_size=4),
    st.booleans(),
    st.lists(small_ints, min_size=3, max_size=3),
    st.booleans(),
)
def test_hermite_membership_agrees_with_solve_integer(m, moves, reflect, x, image):
    # FlatGroup's torsion test: N l = rhs is solvable over Z exactly when
    # rhs lies in the Hermite lattice of N's columns, N = I + A + ... +
    # A^(m-1) for A of finite order, here a conjugate of a standard one,
    # times a reflection that commutes with it; rhs is x itself or N x
    a = [list(row) for row in FINITE_ORDER[m]]
    if reflect:
        a = _mat_mul(a, [[1, 0, 0], [0, 1, 0], [0, 0, -1]])
    p, p_inv = _elementary(moves)
    a = _mat_mul(_mat_mul(p, a), p_inv)
    n_mat, power = _identity3(), a
    while power != _identity3():
        n_mat = [[u + v for u, v in zip(r, q)] for r, q in zip(n_mat, power)]
        power = _mat_mul(power, a)
    rhs = [sum(map(int.__mul__, row, x)) for row in n_mat] if image else x
    member = in_row_span(hermite_row_basis(zip(*n_mat)), rhs)
    assert member == (solve_integer(n_mat, rhs) is not None)
    assert member or not image


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


def test_seeded_dense_matrix_matches_sympy():
    # a 30 x 15 matrix drawn like `sparse_entries`, mostly 0 and +-1 with
    # some entries up to +-6: the unit pivots fill its remainder in, with
    # entries in the thousands, and its invariants are still sympy's
    rng = random.Random(3)
    a = [
        [rng.choice((0, 0, 0, 1, -1)) if rng.random() < 0.5 else rng.randint(-6, 6)
         for _ in range(15)]
        for _ in range(30)
    ]
    units, rest = eliminate_unit_pivots(a)
    assert (units, len(rest), len(rest[0])) == (7, 23, 8)
    sm = sympy_snf(sympy.Matrix(a), domain=sympy.ZZ)
    assert cokernel_invariants(a, 15) == _invariants([sm[i, i] for i in range(15)], 15)
    assert cokernel_invariants(a, 15) == _dense_invariants(a, 15)


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
        sums = [[sum(e for name, e in r.letters if name == x) for x in gens] for r in pres.relators]
        recorded.append((sums, len(gens)))
    assert len(recorded) >= 183 + 928
    for rows, n in recorded:
        assert cokernel_invariants(rows, n) == _dense_invariants(rows, n)

"""Exact integer matrix normal forms.

Small, dependency-free Smith and Hermite normal forms used for lattice
bases and integer linear systems, and the unit-pivot elimination that
abelianization runs before a Smith form of what remains.  Matrices are
lists of lists of Python ints; all arithmetic is exact.
"""

from __future__ import annotations

from typing import Sequence

__all__ = [
    "eliminate_unit_pivots",
    "smith_normal_form",
    "hermite_row_basis",
    "in_row_span",
    "solve_integer",
]

Matrix = list[list[int]]


def _identity(n: int) -> Matrix:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def _xgcd(a: int, b: int) -> tuple[int, int, int]:
    """(g, x, y) with g = gcd(a, b) >= 0 and x a + y b = g."""
    x0, y0, x1, y1 = 1, 0, 0, 1
    while b:
        q = a // b
        a, b = b, a - q * b
        x0, x1 = x1, x0 - q * x1
        y0, y1 = y1, y0 - q * y1
    if a < 0:
        a, x0, y0 = -a, -x0, -y0
    return a, x0, y0


def smith_normal_form(mat: Sequence[Sequence[int]]) -> tuple[Matrix, Matrix, Matrix]:
    """Return (d, u, v) with u @ mat @ v = d, d diagonal with d[i] | d[i+1].

    u and v are unimodular.  The input is not modified.  The pivot's
    column is cleared by Bezout row combinations, which put the gcd in
    the pivot at once: a Euclidean step that swaps its remainder into
    the pivot lets the entries of dense matrices, even 30 x 15 ones with
    entries in [-6, 6], grow to hundreds of digits.  The pivot's row is
    cleared by Euclidean column steps.
    """
    a = [list(map(int, row)) for row in mat]
    m = len(a)
    n = len(a[0]) if m else 0
    u = _identity(m)
    v = _identity(n)

    def swap_rows(i: int, j: int) -> None:
        a[i], a[j] = a[j], a[i]
        u[i], u[j] = u[j], u[i]

    def swap_cols(i: int, j: int) -> None:
        for row in a:
            row[i], row[j] = row[j], row[i]
        for row in v:
            row[i], row[j] = row[j], row[i]

    def add_row(src: int, dst: int, c: int) -> None:
        # row dst += c * row src
        for k in range(n):
            a[dst][k] += c * a[src][k]
        for k in range(m):
            u[dst][k] += c * u[src][k]

    def combine_rows(s: int, d: int, x: int, y: int, z: int, w: int) -> None:
        # (row s, row d) = (x row s + y row d, z row s + w row d)
        for mat in (a, u):
            rs, rd = mat[s], mat[d]
            mat[s] = [x * p + y * q for p, q in zip(rs, rd)]
            mat[d] = [z * p + w * q for p, q in zip(rs, rd)]

    def add_col(src: int, dst: int, c: int) -> None:
        for row in a:
            row[dst] += c * row[src]
        for row in v:
            row[dst] += c * row[src]

    t = 0
    while t < m and t < n:
        # find a pivot: nonzero entry of least absolute value in the submatrix
        pivot = None
        best = None
        for i in range(t, m):
            for j in range(t, n):
                if a[i][j] != 0 and (best is None or abs(a[i][j]) < best):
                    best = abs(a[i][j])
                    pivot = (i, j)
        if pivot is None:
            break
        pi, pj = pivot
        swap_rows(t, pi)
        swap_cols(t, pj)
        again = True
        while again:
            again = False
            for i in range(t + 1, m):
                p, b = a[t][t], a[i][t]
                if b % p == 0:
                    if b:
                        add_row(t, i, -(b // p))
                else:
                    # det [[x, y], [-b/g, p/g]] = (x p + y b) / g = 1
                    g, x, y = _xgcd(p, b)
                    combine_rows(t, i, x, y, -(b // g), p // g)
            for j in range(t + 1, n):
                if a[t][j] != 0:
                    q = a[t][j] // a[t][t]
                    add_col(t, j, -q)
                    if a[t][j] != 0:
                        swap_cols(t, j)
                        again = True
        # enforce divisibility of the remaining submatrix by the pivot
        fixed = False
        for i in range(t + 1, m):
            if fixed:
                break
            for j in range(t + 1, n):
                if a[i][j] % a[t][t] != 0:
                    add_row(i, t, 1)
                    fixed = True
                    break
        if fixed:
            continue
        t += 1

    for i in range(min(m, n)):
        if a[i][i] < 0:
            for k in range(n):
                a[i][k] = -a[i][k]
            for k in range(m):
                u[i][k] = -u[i][k]
    return a, u, v


def eliminate_unit_pivots(rows: Sequence[Sequence[int]]) -> tuple[int, Matrix]:
    """(k, rest): Z^n modulo the span of rows is Z^(n - k - c) plus
    Z^c modulo the span of rest, where rest has c columns.

    Each step pivots on a +-1 entry of a shortest row that has one: the
    row expresses its pivot column's generator in the others, so the
    other rows substitute it and the pivot row and column go (Kaczynski,
    Mischaikow & Mrozek, Computational Homology, ch. 3).  Rows are kept
    sparse, and no transform is built.  rest holds the remaining
    nonzero rows, densely, over the columns that still carry an entry;
    none of its entries is +-1.
    """
    live = [r for r in ({j: x for j, x in enumerate(row) if x} for row in rows) if r]
    units = 0
    while True:
        pivot = None
        for i, row in enumerate(live):
            if (pivot is None or len(row) < len(live[pivot])) and (
                1 in row.values() or -1 in row.values()
            ):
                pivot = i
        if pivot is None:
            break
        units += 1
        prow = live.pop(pivot)
        col = next(j for j, x in prow.items() if x == 1 or x == -1)
        unit = prow.pop(col)
        kept = []
        for row in live:
            c = row.pop(col, 0)
            if c:
                # row -= (c / unit) prow, and 1 / unit = unit
                f = c * unit
                for j, x in prow.items():
                    v = row.get(j, 0) - f * x
                    if v:
                        row[j] = v
                    else:
                        del row[j]
            if row:
                kept.append(row)
        live = kept
    cols = sorted({j for row in live for j in row})
    return units, [[row.get(j, 0) for j in cols] for row in live]


def hermite_row_basis(mat: Sequence[Sequence[int]]) -> list[list[int]]:
    """Basis (as rows, in Hermite normal form) of the row span over Z:
    positive pivots, each entry above a pivot in [0, pivot).  Each row
    is combined into the pivot of a column by one Bezout step, as in
    `smith_normal_form`, and the entries above the pivots are reduced in
    pivot order, so no reduction undoes an earlier column's."""
    rows = [list(map(int, row)) for row in mat if any(row)]
    basis: list[list[int]] = []
    for col in range(len(rows[0]) if rows else 0):
        pivot, rest = None, []
        for r in rows:
            if r[col] and pivot is None:
                pivot = r
                continue
            if r[col]:
                # det [[x, y], [-b/g, p/g]] = 1, and g = p when p | b
                p, b = pivot[col], r[col]
                g, x, y = (p, 1, 0) if b % p == 0 else _xgcd(p, b)
                pivot, r = (
                    [x * u + y * v for u, v in zip(pivot, r)],
                    [p // g * v - b // g * u for u, v in zip(pivot, r)],
                )
            if any(r):
                rest.append(r)
        if pivot is None:
            continue
        if pivot[col] < 0:
            pivot = [-u for u in pivot]
        for above in basis:
            q = above[col] // pivot[col]
            above[:] = [u - q * v for u, v in zip(above, pivot)]
        basis.append(pivot)
        rows = rest
    return basis


def in_row_span(basis: Sequence[Sequence[int]], vec: Sequence[int]) -> bool:
    """Whether vec is an integer combination of the rows of a Hermite
    basis: each pivot must divide what is left in its column."""
    vec = list(vec)
    for row in basis:
        col = next(k for k, x in enumerate(row) if x)
        q, r = divmod(vec[col], row[col])
        if r:
            return False
        vec = [v - q * u for u, v in zip(row, vec)]
    return not any(vec)


def solve_integer(mat: Sequence[Sequence[int]], rhs: Sequence[int]) -> list[int] | None:
    """One integer solution x of mat @ x = rhs, or None when none exists."""
    m = len(mat)
    n = len(mat[0]) if m else 0
    d, u, v = smith_normal_form(mat)
    c = [sum(u[i][k] * rhs[k] for k in range(m)) for i in range(m)]
    y = [0] * n
    r = min(m, n)
    for i in range(r):
        di = d[i][i]
        if di == 0:
            if c[i] != 0:
                return None
        else:
            if c[i] % di != 0:
                return None
            y[i] = c[i] // di
    for i in range(r, m):
        if c[i] != 0:
            return None
    return [sum(v[i][k] * y[k] for k in range(n)) for i in range(n)]

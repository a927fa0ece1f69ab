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
    """Basis (as rows, in Hermite normal form) of the row span over Z."""
    rows = [list(map(int, row)) for row in mat if any(row)]
    if not rows:
        return []
    n = len(rows[0])
    basis: list[list[int]] = []
    col = 0
    while rows and col < n:
        live = [r for r in rows if r[col] != 0]
        if not live:
            col += 1
            continue
        # reduce the column to a single pivot by gcd steps
        while True:
            live.sort(key=lambda r: abs(r[col]))
            p = live[0]
            done = True
            for r in live[1:]:
                q = r[col] // p[col]
                for k in range(n):
                    r[k] -= q * p[k]
                if r[col] != 0:
                    done = False
            live = [r for r in live if r[col] != 0]
            if done or len(live) <= 1:
                break
        pivot = live[0]
        if pivot[col] < 0:
            for k in range(n):
                pivot[k] = -pivot[k]
        basis.append(pivot)
        rows = [r for r in rows if r is not pivot and any(r)]
        for r in rows:
            if r[col] != 0:
                q = r[col] // pivot[col]
                for k in range(n):
                    r[k] -= q * pivot[k]
        rows = [r for r in rows if any(r)]
        col += 1
    # reduce entries above each pivot for a canonical form
    for idx in range(len(basis) - 1, -1, -1):
        pcol = next(k for k in range(n) if basis[idx][k] != 0)
        for above in range(idx):
            q = basis[above][pcol] // basis[idx][pcol]
            if q:
                for k in range(n):
                    basis[above][k] -= q * basis[idx][k]
    return basis


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

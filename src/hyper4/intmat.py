"""Exact integer matrix normal forms.

Small, dependency-free Smith and Hermite normal forms used for
abelianization, lattice bases and integer linear systems.  Matrices are
lists of lists of Python ints; all arithmetic is exact.
"""

from __future__ import annotations

from typing import Sequence

__all__ = [
    "smith_normal_form",
    "hermite_row_basis",
    "solve_integer",
]

Matrix = list[list[int]]


def _identity(n: int) -> Matrix:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def smith_normal_form(mat: Sequence[Sequence[int]]) -> tuple[Matrix, Matrix, Matrix]:
    """Return (d, u, v) with u @ mat @ v = d, d diagonal with d[i] | d[i+1].

    u and v are unimodular.  The input is not modified.
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
                if a[i][t] != 0:
                    q = a[i][t] // a[t][t]
                    add_row(t, i, -q)
                    if a[i][t] != 0:
                        swap_rows(t, i)
                        again = True
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

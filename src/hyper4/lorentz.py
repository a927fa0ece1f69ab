"""Exact integer linear algebra for the Lorentzian form of signature (4, 1).

All vectors and matrices carry plain Python integers, so products and
reflections are exact.  The bilinear form is

    <x, y> = x1*y1 + x2*y2 + x3*y3 + x4*y4 - x5*y5,

with Gram matrix J = diag(1, 1, 1, 1, -1).  A matrix M is Lorentzian when
M^T J M = J, positive when it maps the upper light cone to itself (for
Lorentzian integer matrices this is equivalent to entry (5,5) > 0), and a
congruence-two element when M is congruent to the identity mod 2.

Hyperplanes of hyperbolic 4-space are encoded by unit spacelike normals
(v with <v, v> = 1), ideal points by integer light vectors (<u, u> = 0)
with positive last coordinate.

Values are checked where they enter: the public constructors check the
shape (and a vector's integer coordinates), and so `reflection_matrix`,
`diagonal_k` and the 24-cell's vertices and normals are checked.  A
product, an image under `apply` or an inverse is built unchecked from
such values, with its arithmetic written out in full.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

__all__ = [
    "DIMENSION",
    "J_SIGNS",
    "LorentzVector",
    "LorentzMatrix",
    "IDENTITY",
    "lorentz_product",
    "reflection_matrix",
    "diagonal_k",
]

DIMENSION = 5

# Signs of the diagonal Gram matrix J.
J_SIGNS = (1, 1, 1, 1, -1)


@dataclass(frozen=True)
class LorentzVector:
    """Integer vector in the quadratic space R^{4,1}."""

    coords: tuple[int, int, int, int, int]

    def __post_init__(self) -> None:
        if len(self.coords) != DIMENSION:
            raise ValueError(f"expected {DIMENSION} coordinates, got {len(self.coords)}")
        if not all(isinstance(c, int) for c in self.coords):
            raise ValueError("coordinates must be integers")

    def dot(self, other: "LorentzVector") -> int:
        """Lorentzian inner product <self, other>."""
        return lorentz_product(self.coords, other.coords)

    def norm(self) -> int:
        return self.dot(self)

    def is_light(self) -> bool:
        """True for a nonzero vector on the upper light cone."""
        return self.norm() == 0 and self.coords[4] > 0

    def is_unit_spacelike(self) -> bool:
        return self.norm() == 1

    def __str__(self) -> str:
        return "(" + ", ".join(str(c) for c in self.coords) + ")"


def _unchecked(cls, field: str, value):
    """An instance of the one-field frozen dataclass cls, built without
    its `__post_init__`.

    Products, images and inverses go through here: they are computed
    from matrices and vectors whose shape and entries were checked when
    they entered, so checking their results again would only cost time.
    """
    obj = object.__new__(cls)
    obj.__dict__[field] = value
    return obj


def _unchecked_inverse(m: "LorentzMatrix") -> "LorentzMatrix":
    """J M^T J, the inverse of M when M is Lorentzian, built unchecked.

    `LorentzMatrix.inverse` calls it after its check; a product of
    checked Lorentzian matrices is Lorentzian, so its inverse can come
    from here directly.
    """
    (
        (a00, a01, a02, a03, a04),
        (a10, a11, a12, a13, a14),
        (a20, a21, a22, a23, a24),
        (a30, a31, a32, a33, a34),
        (a40, a41, a42, a43, a44),
    ) = m.rows
    return _unchecked(LorentzMatrix, "rows", (
        (a00, a10, a20, a30, -a40),
        (a01, a11, a21, a31, -a41),
        (a02, a12, a22, a32, -a42),
        (a03, a13, a23, a33, -a43),
        (-a04, -a14, -a24, -a34, a44),
    ))


def lorentz_product(x: Sequence[int], y: Sequence[int]) -> int:
    return sum(s * a * b for s, a, b in zip(J_SIGNS, x, y))


@dataclass(frozen=True)
class LorentzMatrix:
    """5x5 integer matrix, stored as a tuple of rows."""

    rows: tuple[tuple[int, int, int, int, int], ...]

    def __post_init__(self) -> None:
        if len(self.rows) != DIMENSION or any(len(r) != DIMENSION for r in self.rows):
            raise ValueError("expected a 5x5 matrix")

    def __matmul__(self, other: "LorentzMatrix") -> "LorentzMatrix":
        (
            (a00, a01, a02, a03, a04),
            (a10, a11, a12, a13, a14),
            (a20, a21, a22, a23, a24),
            (a30, a31, a32, a33, a34),
            (a40, a41, a42, a43, a44),
        ) = self.rows
        (
            (b00, b01, b02, b03, b04),
            (b10, b11, b12, b13, b14),
            (b20, b21, b22, b23, b24),
            (b30, b31, b32, b33, b34),
            (b40, b41, b42, b43, b44),
        ) = other.rows
        return _unchecked(LorentzMatrix, "rows", (
            (
                a00 * b00 + a01 * b10 + a02 * b20 + a03 * b30 + a04 * b40,
                a00 * b01 + a01 * b11 + a02 * b21 + a03 * b31 + a04 * b41,
                a00 * b02 + a01 * b12 + a02 * b22 + a03 * b32 + a04 * b42,
                a00 * b03 + a01 * b13 + a02 * b23 + a03 * b33 + a04 * b43,
                a00 * b04 + a01 * b14 + a02 * b24 + a03 * b34 + a04 * b44,
            ),
            (
                a10 * b00 + a11 * b10 + a12 * b20 + a13 * b30 + a14 * b40,
                a10 * b01 + a11 * b11 + a12 * b21 + a13 * b31 + a14 * b41,
                a10 * b02 + a11 * b12 + a12 * b22 + a13 * b32 + a14 * b42,
                a10 * b03 + a11 * b13 + a12 * b23 + a13 * b33 + a14 * b43,
                a10 * b04 + a11 * b14 + a12 * b24 + a13 * b34 + a14 * b44,
            ),
            (
                a20 * b00 + a21 * b10 + a22 * b20 + a23 * b30 + a24 * b40,
                a20 * b01 + a21 * b11 + a22 * b21 + a23 * b31 + a24 * b41,
                a20 * b02 + a21 * b12 + a22 * b22 + a23 * b32 + a24 * b42,
                a20 * b03 + a21 * b13 + a22 * b23 + a23 * b33 + a24 * b43,
                a20 * b04 + a21 * b14 + a22 * b24 + a23 * b34 + a24 * b44,
            ),
            (
                a30 * b00 + a31 * b10 + a32 * b20 + a33 * b30 + a34 * b40,
                a30 * b01 + a31 * b11 + a32 * b21 + a33 * b31 + a34 * b41,
                a30 * b02 + a31 * b12 + a32 * b22 + a33 * b32 + a34 * b42,
                a30 * b03 + a31 * b13 + a32 * b23 + a33 * b33 + a34 * b43,
                a30 * b04 + a31 * b14 + a32 * b24 + a33 * b34 + a34 * b44,
            ),
            (
                a40 * b00 + a41 * b10 + a42 * b20 + a43 * b30 + a44 * b40,
                a40 * b01 + a41 * b11 + a42 * b21 + a43 * b31 + a44 * b41,
                a40 * b02 + a41 * b12 + a42 * b22 + a43 * b32 + a44 * b42,
                a40 * b03 + a41 * b13 + a42 * b23 + a43 * b33 + a44 * b43,
                a40 * b04 + a41 * b14 + a42 * b24 + a43 * b34 + a44 * b44,
            ),
        ))

    def apply(self, v: LorentzVector) -> LorentzVector:
        (
            (a00, a01, a02, a03, a04),
            (a10, a11, a12, a13, a14),
            (a20, a21, a22, a23, a24),
            (a30, a31, a32, a33, a34),
            (a40, a41, a42, a43, a44),
        ) = self.rows
        x0, x1, x2, x3, x4 = v.coords
        return _unchecked(LorentzVector, "coords", (
            a00 * x0 + a01 * x1 + a02 * x2 + a03 * x3 + a04 * x4,
            a10 * x0 + a11 * x1 + a12 * x2 + a13 * x3 + a14 * x4,
            a20 * x0 + a21 * x1 + a22 * x2 + a23 * x3 + a24 * x4,
            a30 * x0 + a31 * x1 + a32 * x2 + a33 * x3 + a34 * x4,
            a40 * x0 + a41 * x1 + a42 * x2 + a43 * x3 + a44 * x4,
        ))

    def inverse(self) -> "LorentzMatrix":
        """Inverse of a Lorentzian matrix, computed as J M^T J."""
        if not self.is_lorentzian():
            raise ValueError("inverse via J M^T J requires a Lorentzian matrix")
        return _unchecked_inverse(self)

    def is_lorentzian(self) -> bool:
        """Check M^T J M = J."""
        for i in range(DIMENSION):
            for j in range(i, DIMENSION):
                s = sum(J_SIGNS[k] * self.rows[k][i] * self.rows[k][j] for k in range(DIMENSION))
                expected = J_SIGNS[i] if i == j else 0
                if s != expected:
                    return False
        return True


IDENTITY = LorentzMatrix(
    tuple(tuple(1 if i == j else 0 for j in range(DIMENSION)) for i in range(DIMENSION))
)


def reflection_matrix(normal: LorentzVector) -> LorentzMatrix:
    """Reflection in the hyperplane orthogonal to a unit spacelike normal.

    R = I - 2 v (Jv)^T, so R x = x - 2 <x, v> v.  The result is an integer
    Lorentzian matrix of determinant -1 lying in the congruence-two group.
    """
    if not normal.is_unit_spacelike():
        raise ValueError(f"reflection normal must satisfy <v, v> = 1, got {normal.norm()}")
    v = normal.coords
    jv = tuple(s * c for s, c in zip(J_SIGNS, v))
    return LorentzMatrix(
        tuple(
            tuple((1 if i == j else 0) - 2 * v[i] * jv[j] for j in range(DIMENSION))
            for i in range(DIMENSION)
        )
    )


def diagonal_k(signs: Sequence[int]) -> LorentzMatrix:
    """Diagonal isometry diag(s1, s2, s3, s4, 1) with each si = +-1."""
    if len(signs) != 4 or any(s not in (1, -1) for s in signs):
        raise ValueError(f"expected four signs +-1, got {signs!r}")
    entries = tuple(signs) + (1,)
    return LorentzMatrix(
        tuple(
            tuple(entries[i] if i == j else 0 for j in range(DIMENSION))
            for i in range(DIMENSION)
        )
    )

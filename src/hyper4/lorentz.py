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
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import mul
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
        cols = tuple(zip(*other.rows))
        return LorentzMatrix(
            tuple(
                tuple(sum(map(mul, row, col)) for col in cols)
                for row in self.rows
            )
        )

    def apply(self, v: LorentzVector) -> LorentzVector:
        return LorentzVector(
            tuple(sum(map(mul, row, v.coords)) for row in self.rows)
        )

    def inverse(self) -> "LorentzMatrix":
        """Inverse of a Lorentzian matrix, computed as J M^T J."""
        if not self.is_lorentzian():
            raise ValueError("inverse via J M^T J requires a Lorentzian matrix")
        t = self.rows
        return LorentzMatrix(
            tuple(
                tuple(J_SIGNS[i] * t[j][i] * J_SIGNS[j] for j in range(DIMENSION))
                for i in range(DIMENSION)
            )
        )

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

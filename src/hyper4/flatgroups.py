"""Flat 3-manifold groups from exact affine data.

A crystallographic group acting on R^3 is described by affine maps
v :-> A v + b over the rationals.  The pipeline walks the finite holonomy
group of linear parts on the first generator of each, carrying only the
shift of each transversal element, with no affine product or inverse;
the walk's Schreier translations and the holonomy images of the other
generators' translations span the rank-3 translation lattice (a Hermite
basis).  The first homology is the cokernel of the exponent-sum rows of
a presentation on the lattice basis and the kept generators: their
action on the lattice, and one relator per closing edge of the walk,
whose letters the walk counts.  A Hermite lattice membership test per
holonomy element shows the group torsion free.
Torsion-free groups are matched against the ten closed flat 3-manifold
types A..J (Hantzsche-Wendt order: A..F orientable, G..J not) by the
invariant triple (orientability, holonomy type, first homology), with
reference invariants derived at runtime from standard generators.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from math import lcm
from typing import NamedTuple

from .grouppres import AbelianInvariants, cokernel_invariants, orbit_edges
from .intmat import hermite_row_basis, in_row_span

__all__ = [
    "StructuralError",
    "AffineMap",
    "FlatGroup",
    "reference_flat_groups",
    "classify_flat_group",
]

Rational = int | Fraction  # an int wherever the value is integral
Row = tuple[Rational, Rational, Rational]
Mat3 = tuple[Row, Row, Row]
Vec3 = tuple[Rational, Rational, Rational]

# The largest finite subgroup of GL(3, Z) has order 48, so a larger
# holonomy closure is not finite.
HOLONOMY_CAP = 48


class StructuralError(Exception):
    """Input that is not the group of a closed flat 3-manifold."""


def _exact(x) -> Rational:
    """x as an int when it is integral, otherwise as a Fraction."""
    if type(x) is int:
        return x
    x = Fraction(x)
    return x.numerator if x.denominator == 1 else x


def _div(x: Rational, d: Rational) -> Rational:
    """The exact quotient x / d, an int when d divides x."""
    if type(x) is int and type(d) is int:
        q, r = divmod(x, d)
        return q if r == 0 else Fraction(x, d)
    return _exact(x / d)


def _quotients(values, d: int) -> list[int] | None:
    """The quotients x / d when each is an integer, otherwise None."""
    out = []
    for x in values:
        q, r = divmod(x, d)
        if r:
            return None
        out.append(q)
    return out


def _exact_rows(rows) -> Mat3:
    return tuple(tuple(_exact(x) for x in row) for row in rows)  # type: ignore[return-value]


def _exact_vec(vec) -> Vec3:
    return tuple(_exact(x) for x in vec)  # type: ignore[return-value]


_ID3: Mat3 = ((1, 0, 0), (0, 1, 0), (0, 0, 1))


def _mat_mul(a: Mat3, b: Mat3) -> Mat3:
    (a0, a1, a2), (a3, a4, a5), (a6, a7, a8) = a
    (b0, b1, b2), (b3, b4, b5), (b6, b7, b8) = b
    return (
        (a0 * b0 + a1 * b3 + a2 * b6, a0 * b1 + a1 * b4 + a2 * b7, a0 * b2 + a1 * b5 + a2 * b8),
        (a3 * b0 + a4 * b3 + a5 * b6, a3 * b1 + a4 * b4 + a5 * b7, a3 * b2 + a4 * b5 + a5 * b8),
        (a6 * b0 + a7 * b3 + a8 * b6, a6 * b1 + a7 * b4 + a8 * b7, a6 * b2 + a7 * b5 + a8 * b8),
    )


def _mat_vec(a: Mat3, v: Vec3) -> Vec3:
    (a0, a1, a2), (a3, a4, a5), (a6, a7, a8) = a
    v0, v1, v2 = v
    return (a0 * v0 + a1 * v1 + a2 * v2, a3 * v0 + a4 * v1 + a5 * v2, a6 * v0 + a7 * v1 + a8 * v2)


def _vec_add(u: Vec3, v: Vec3) -> Vec3:
    return (u[0] + v[0], u[1] + v[1], u[2] + v[2])


def _vec_sub(u: Vec3, v: Vec3) -> Vec3:
    return (u[0] - v[0], u[1] - v[1], u[2] - v[2])


def _det3(a: Mat3) -> Rational:
    return (
        a[0][0] * (a[1][1] * a[2][2] - a[1][2] * a[2][1])
        - a[0][1] * (a[1][0] * a[2][2] - a[1][2] * a[2][0])
        + a[0][2] * (a[1][0] * a[2][1] - a[1][1] * a[2][0])
    )


def _adjugate3(a: Mat3) -> Mat3:
    """The transpose of the cofactor matrix: a adj(a) = det(a) I."""
    return tuple(
        tuple(
            a[(j + 1) % 3][(i + 1) % 3] * a[(j + 2) % 3][(i + 2) % 3]
            - a[(j + 1) % 3][(i + 2) % 3] * a[(j + 2) % 3][(i + 1) % 3]
            for j in range(3)
        )
        for i in range(3)
    )  # type: ignore[return-value]


def _inv3(a: Mat3) -> Mat3:
    d = _det3(a)
    if d == 0:
        raise ZeroDivisionError("singular 3x3 matrix")
    # inverse = adjugate / det, divided exactly
    return tuple(
        tuple(_div(x, d) for x in row) for row in _adjugate3(a)
    )  # type: ignore[return-value]


class AffineMap(NamedTuple):
    """v :-> linear v + shift, all entries exact rationals; `of` stores
    each integral entry as an int."""

    linear: Mat3
    shift: Vec3

    @classmethod
    def of(cls, linear, shift) -> "AffineMap":
        return cls(_exact_rows(linear), _exact_vec(shift))

    @classmethod
    def translation(cls, shift) -> "AffineMap":
        return cls(_ID3, _exact_vec(shift))

    @classmethod
    def identity(cls) -> "AffineMap":
        return cls(_ID3, (0, 0, 0))

    def __matmul__(self, other: "AffineMap") -> "AffineMap":
        # composition: (self @ other)(v) = self(other(v))
        return AffineMap(
            _mat_mul(self.linear, other.linear),
            _vec_add(_mat_vec(self.linear, other.shift), self.shift),
        )

    def inverse(self) -> "AffineMap":
        inv = _inv3(self.linear)
        return AffineMap(inv, tuple(-x for x in _mat_vec(inv, self.shift)))  # type: ignore[arg-type]


class FlatGroup:
    """A Bieberbach group presented by affine generators.

    Construction performs the full analysis and raises StructuralError
    when the input is not the fundamental group of a closed flat
    3-manifold (holonomy not finite, lattice rank < 3, or torsion).
    """

    def __init__(self, generators):
        self.generators: tuple[AffineMap, ...] = tuple(generators)
        if not self.generators:
            raise StructuralError("no generators")

        if any(_det3(g.linear) == 0 for g in self.generators):
            raise StructuralError("a generator has a singular linear part")

        # the first generator r of each linear part is kept; every other
        # generator g with that part is the translation g r^-1, by the
        # difference of the shifts, and a translation stays a translation
        kept: dict[Mat3, Vec3] = {}
        shifts: list[Vec3] = []
        for g in self.generators:
            if g.linear == _ID3:
                shifts.append(g.shift)
            elif g.linear in kept:
                shifts.append(_vec_sub(g.shift, kept[g.linear]))
            else:
                kept[g.linear] = g.shift

        # the walk over the finite group of linear parts, on the kept
        # generators, carries the shift b_sigma of each right-coset
        # transversal element x_sigma and the letter count of its word in
        # the kept generators: an edge sigma -> tau = sigma r has the
        # Schreier element x_sigma r x_tau^-1, the translation by
        # sigma r.shift + b_sigma - b_tau
        parts = list(kept.items())

        def steps(sigma):
            return ((i, _mat_mul(sigma, linear)) for i, (linear, _) in enumerate(parts))

        hol: dict[Mat3, Vec3] = {_ID3: (0, 0, 0)}
        counts: dict[Mat3, list[int]] = {_ID3: [0] * len(parts)}
        closing = []
        for sigma, i, tau, new in orbit_edges(_ID3, steps):
            moved = _vec_add(_mat_vec(sigma, parts[i][1]), hol[sigma])
            count = counts[sigma][:]
            count[i] += 1
            if not new:
                letters = [a - b for a, b in zip(count, counts[tau])]
                closing.append((letters, _vec_sub(moved, hol[tau])))
            elif len(hol) >= HOLONOMY_CAP:
                raise StructuralError(
                    f"holonomy exceeds {HOLONOMY_CAP} elements; not finite"
                )
            else:
                hol[tau] = moved
                counts[tau] = count
        vectors = [t for _, t in closing]
        # the Schreier element x_sigma t x_sigma^-1 of a translation t is
        # the translation by sigma t
        vectors += [_mat_vec(sigma, t) for sigma in hol for t in shifts]
        self.holonomy: tuple[Mat3, ...] = tuple(sorted(hol))
        self.holonomy_order = len(hol)

        denom = lcm(*(f.denominator for v in vectors for f in v)) if vectors else 1
        int_rows = [[int(f * denom) for f in v] for v in vectors]
        basis = hermite_row_basis(int_rows)
        if len(basis) != 3:
            raise StructuralError(
                f"translation lattice has rank {len(basis)}, expected 3"
            )
        # lattice basis as columns of a rational matrix B / denom, B the
        # integer matrix whose columns are the Hermite basis
        b_mat: Mat3 = tuple(zip(*basis))  # type: ignore[assignment]
        self.lattice: Mat3 = tuple(
            tuple(_div(x, denom) for x in row) for row in b_mat
        )  # type: ignore[assignment]
        # lattice coordinates are (B / denom)^-1 = denom adj(B) / det B,
        # applied and then divided exactly by det B
        b_adj = _adjugate3(b_mat)
        self._det = _det3(b_mat)
        self._coords_mat = tuple(tuple(denom * x for x in row) for row in b_adj)

        # non-identity holonomy elements in a deterministic order
        self._sigmas: list[Mat3] = [s for s in self.holonomy if s != _ID3]
        self._names = {s: f"x{i + 1}" for i, s in enumerate(self._sigmas)}
        self._hol = hol
        # each holonomy element's linear part in lattice coordinates
        self._linear: dict[Mat3, Mat3] = {}
        for s in self._sigmas:
            rows = [
                _quotients(row, self._det)
                for row in _mat_mul(b_adj, _mat_mul(s, b_mat))
            ]
            if None in rows:
                raise StructuralError(
                    "holonomy does not preserve the translation lattice"
                )
            self._linear[s] = tuple(map(tuple, rows))  # type: ignore[arg-type]

        self.h1: AbelianInvariants = self._first_homology(list(kept), closing)
        self._check_torsion_free()
        self.orientable = all(_det3(s) == 1 for s in self.holonomy)
        self.holonomy_type = self._holonomy_type()

    # -- first homology of the lattice extension -----------------------------

    def _lattice_coords(self, vec: Vec3) -> list[int] | None:
        """The coordinates of vec in the lattice basis, or None when vec
        is not a lattice vector."""
        return _quotients(_mat_vec(self._coords_mat, vec), self._det)

    def _first_homology(
        self, kept: list[Mat3], closing: list[tuple[list[int], Vec3]]
    ) -> AbelianInvariants:
        """The cokernel of the exponent-sum rows of the group's presentation
        as a lattice extension, over the generators e1, e2, e3 (the
        lattice basis) and the kept generators r.

        The relators are the commutators of the e_j, whose rows are zero;
        r e_j r^-1 = e^(column j of r's linear part in lattice
        coordinates); and, for each closing edge of the holonomy walk,
        x_sigma r x_tau^-1 = e^c, with the walk's letter counts and c the
        lattice coordinates of the edge's translation.  The closing edges'
        relators present the holonomy group on the kept generators
        (Reidemeister-Schreier)."""
        width = 3 + len(kept)
        rows = []
        for linear in kept:
            lin = self._linear[linear]
            for j in range(3):
                rows.append([int(i == j) - lin[i][j] for i in range(3)] + [0] * (width - 3))
        for letters, t in closing:
            # t is one of the vectors the lattice is the span of
            rows.append([-c for c in self._lattice_coords(t)] + letters)  # type: ignore[union-attr]
        return cokernel_invariants(rows, width)

    # -- torsion -------------------------------------------------------------

    def _check_torsion_free(self) -> None:
        """A nontrivial element (A, b + l) of finite order exists iff
        N(b + l) = 0 is solvable with l integral, N = I + A + ... + A^(m-1),
        that is iff -N b lies in the lattice of N's columns.  Checking every
        holonomy element, and recording its order m, is a complete test."""
        self._orders: dict[Mat3, int] = {}
        for s in self._sigmas:
            lin = self._linear[s]
            # N in lattice coordinates, and N b in input coordinates as
            # the translation b + s(b + s(b + ...)) of x_s^m; s lies in a
            # finite group, so its powers come back to the identity
            shift = self._hol[s]
            n_mat, power, n_shift, order = _ID3, lin, shift, 1
            while power != _ID3:
                n_mat = tuple(
                    tuple(n_mat[i][j] + power[i][j] for j in range(3)) for i in range(3)
                )  # type: ignore[assignment]
                power = _mat_mul(power, lin)
                n_shift = _vec_add(_mat_vec(s, n_shift), shift)
                order += 1
            self._orders[s] = order
            rhs = self._lattice_coords(tuple(-x for x in n_shift))  # type: ignore[arg-type]
            # N l is integral for integral l, so a fractional rhs already
            # rules out a solution
            if rhs is not None and in_row_span(hermite_row_basis(zip(*n_mat)), rhs):
                raise StructuralError(
                    f"group has torsion over holonomy element {self._names[s]}"
                )

    # -- invariants ----------------------------------------------------------

    def _holonomy_type(self) -> str:
        n = self.holonomy_order
        if n == 1:
            return "1"
        if n in (2, 3, 6):
            return f"Z{n}"
        if n == 4:
            return "Z4" if 4 in self._orders.values() else "Z2xZ2"
        raise StructuralError(
            f"holonomy order {n} is not realized by a closed flat 3-manifold"
        )

    def invariants(self) -> tuple[bool, str, tuple[int, tuple[int, ...]]]:
        return (self.orientable, self.holonomy_type, (self.h1.rank, self.h1.torsion))


def _reference_affine_data() -> dict[str, list[AffineMap]]:
    F = Fraction
    h = F(1, 2)
    t1 = AffineMap.translation((1, 0, 0))
    t2 = AffineMap.translation((0, 1, 0))
    t3 = AffineMap.translation((0, 0, 1))
    translations = [t1, t2, t3]

    def rot(rows, shift) -> AffineMap:
        return AffineMap.of(rows, shift)

    data = {
        "A": list(translations),
        "B": translations
        + [rot(((-1, 0, 0), (0, -1, 0), (0, 0, 1)), (0, 0, h))],
        "C": translations
        + [rot(((0, -1, 0), (1, -1, 0), (0, 0, 1)), (0, 0, F(1, 3)))],
        "D": translations
        + [rot(((0, -1, 0), (1, 0, 0), (0, 0, 1)), (0, 0, F(1, 4)))],
        "E": translations
        + [rot(((1, -1, 0), (1, 0, 0), (0, 0, 1)), (0, 0, F(1, 6)))],
        "F": translations
        + [
            rot(((1, 0, 0), (0, -1, 0), (0, 0, -1)), (h, 0, 0)),
            rot(((-1, 0, 0), (0, 1, 0), (0, 0, -1)), (0, h, h)),
        ],
        "G": translations
        + [rot(((1, 0, 0), (0, 1, 0), (0, 0, -1)), (h, 0, 0))],
        "H": translations
        + [rot(((1, 0, 0), (0, 1, 1), (0, 0, -1)), (h, 0, 0))],
        "I": translations
        + [
            rot(((1, 0, 0), (0, -1, 0), (0, 0, -1)), (h, 0, 0)),
            rot(((1, 0, 0), (0, 1, 0), (0, 0, -1)), (0, h, 0)),
        ],
        "J": translations
        + [
            rot(((1, 0, 0), (0, -1, 0), (0, 0, -1)), (h, 0, 0)),
            rot(((1, 0, 0), (0, 1, 0), (0, 0, -1)), (0, h, h)),
        ],
    }
    return data


@cache
def reference_flat_groups() -> dict[str, FlatGroup]:
    """The ten standard flat 3-manifold groups, analyzed by the pipeline."""
    return {tag: FlatGroup(gens) for tag, gens in _reference_affine_data().items()}


@cache
def _decision_table() -> dict[tuple, str]:
    table: dict[tuple, str] = {}
    for tag, group in reference_flat_groups().items():
        key = group.invariants()
        if key in table:
            raise StructuralError(
                f"flat types {table[key]} and {tag} share invariants {key}: "
                f"{table[key]}-or-{tag} ambiguous"
            )
        table[key] = tag
    return table


def classify_flat_group(group: FlatGroup) -> str:
    """Match a torsion-free flat group against the ten reference types."""
    key = group.invariants()
    table = _decision_table()
    if key not in table:
        raise StructuralError(f"invariants {key} match none of the ten flat types")
    return table[key]

"""`FlatGroup` on integers against a copy of the all-`Fraction` version.

`_ReferenceFlatGroup` below is the flat-group pipeline as it stood
before the arithmetic moved to `int`: every entry a `Fraction`, generic
3x3 products, every holonomy transversal element inverted at each use,
the holonomy closure stepping over every generator, and the first
homology abelianized from a `Word` presentation of the lattice
extension, and torsion decided by `solve_integer`'s Smith form.  Both classes must agree on holonomy, lattice, first homology
and the invariant triple, and must raise the same `StructuralError`
message.
"""

from fractions import Fraction
from math import lcm
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyper4 import filling, flatgroups
from hyper4.analysis import CodeAnalysis
from hyper4.cusp import _affine, cusp_flat_group, vertex_classes
from hyper4.flatgroups import AffineMap, FlatGroup, StructuralError, reference_flat_groups
from hyper4.grouppres import GroupPresentation, abelianization, orbit_edges
from hyper4.intmat import hermite_row_basis, solve_integer
from hyper4.pairing import build_side_pairings
from hyper4.words import Word

POOL = Path(__file__).parent.parent / "perfbench" / "data" / "pool.tsv"


# -- the all-Fraction reference ------------------------------------------


def _frac_rows(rows):
    return tuple(tuple(Fraction(x) for x in row) for row in rows)


def _frac_vec(vec):
    return tuple(Fraction(x) for x in vec)


_ID3 = _frac_rows(((1, 0, 0), (0, 1, 0), (0, 0, 1)))


def _mat_mul(a, b):
    return tuple(
        tuple(sum(a[i][k] * b[k][j] for k in range(3)) for j in range(3))
        for i in range(3)
    )


def _mat_vec(a, v):
    return tuple(sum(a[i][k] * v[k] for k in range(3)) for i in range(3))


def _det3(a):
    return (
        a[0][0] * (a[1][1] * a[2][2] - a[1][2] * a[2][1])
        - a[0][1] * (a[1][0] * a[2][2] - a[1][2] * a[2][0])
        + a[0][2] * (a[1][0] * a[2][1] - a[1][1] * a[2][0])
    )


def _inv3(a):
    d = _det3(a)
    if d == 0:
        raise ZeroDivisionError("singular 3x3 matrix")
    cof = [
        [
            (a[(i + 1) % 3][(j + 1) % 3] * a[(i + 2) % 3][(j + 2) % 3]
             - a[(i + 1) % 3][(j + 2) % 3] * a[(i + 2) % 3][(j + 1) % 3])
            for j in range(3)
        ]
        for i in range(3)
    ]
    return tuple(tuple(cof[j][i] / d for j in range(3)) for i in range(3))


class _RefMap:
    def __init__(self, linear, shift):
        self.linear = _frac_rows(linear)
        self.shift = _frac_vec(shift)

    def __matmul__(self, other):
        return _RefMap(
            _mat_mul(self.linear, other.linear),
            tuple(x + y for x, y in zip(_mat_vec(self.linear, other.shift), self.shift)),
        )

    def inverse(self):
        inv = _inv3(self.linear)
        return _RefMap(inv, tuple(-x for x in _mat_vec(inv, self.shift)))


def _matrix_order(a, cap=48):
    power = a
    for n in range(1, cap + 1):
        if power == _ID3:
            return n
        power = _mat_mul(power, a)
    raise StructuralError("linear part does not have finite order <= 48")


def _e_power(coeffs):
    letters = []
    for j, c in enumerate(coeffs):
        letters.extend([(f"e{j + 1}", 1 if c > 0 else -1)] * abs(c))
    return letters


class _ReferenceFlatGroup:
    def __init__(self, generators, holonomy_cap=48):
        self.generators = tuple(_RefMap(g.linear, g.shift) for g in generators)
        if not self.generators:
            raise StructuralError("no generators")

        hol = {_ID3: _RefMap(_ID3, (0, 0, 0))}

        def steps(sigma):
            return ((g, _mat_mul(sigma, g.linear)) for g in self.generators)

        for sigma, g, product, new in orbit_edges(_ID3, steps):
            if new:
                if len(hol) >= holonomy_cap:
                    raise StructuralError(
                        f"holonomy exceeds {holonomy_cap} elements; not finite"
                    )
                hol[product] = hol[sigma] @ g
        self.holonomy = tuple(sorted(hol))
        self.holonomy_order = len(hol)

        vectors = []
        for sigma, x in hol.items():
            for g in self.generators:
                t = (x @ g) @ hol[_mat_mul(sigma, g.linear)].inverse()
                if t.linear != _ID3:
                    raise AssertionError("Schreier element has nontrivial linear part")
                vectors.append(t.shift)
        denom = lcm(*(f.denominator for v in vectors for f in v)) if vectors else 1
        basis = hermite_row_basis([[int(f * denom) for f in v] for v in vectors])
        if len(basis) != 3:
            raise StructuralError(
                f"translation lattice has rank {len(basis)}, expected 3"
            )
        self.lattice = tuple(
            tuple(Fraction(basis[j][i], denom) for j in range(3)) for i in range(3)
        )
        lattice_inv = _inv3(self.lattice)

        def to_lattice(m):
            return _RefMap(
                _mat_mul(lattice_inv, _mat_mul(m.linear, self.lattice)),
                _mat_vec(lattice_inv, m.shift),
            )

        self._sigmas = [s for s in self.holonomy if s != _ID3]
        self._names = {s: f"x{i + 1}" for i, s in enumerate(self._sigmas)}
        self._reduced = {s: to_lattice(hol[s]) for s in hol}
        for s in self._sigmas:
            if any(f.denominator != 1 for row in self._reduced[s].linear for f in row):
                raise StructuralError(
                    "holonomy does not preserve the translation lattice"
                )

        self.presentation = self._extension_presentation()
        self.h1 = abelianization(self.presentation)
        self._check_torsion_free()
        self.orientable = all(_det3(s) == 1 for s in self.holonomy)
        self.holonomy_type = self._holonomy_type()

    def _extension_presentation(self):
        names = [f"e{j}" for j in (1, 2, 3)] + [self._names[s] for s in self._sigmas]
        relators = []
        for i in range(3):
            for j in range(i + 1, 3):
                relators.append(
                    Word.make(
                        [(f"e{i + 1}", 1), (f"e{j + 1}", 1), (f"e{i + 1}", -1), (f"e{j + 1}", -1)]
                    )
                )
        for s in self._sigmas:
            x = self._names[s]
            lin = self._reduced[s].linear
            for j in range(3):
                column = [int(lin[i][j]) for i in range(3)]
                letters = [(x, 1), (f"e{j + 1}", 1), (x, -1)]
                relators.append(Word.make(letters + _e_power([-c for c in column])))
        for s in self._sigmas:
            for t in self._sigmas:
                product = _mat_mul(s, t)
                combined = self._reduced[s] @ self._reduced[t]
                if product == _ID3:
                    shift = combined.shift
                    letters = [(self._names[s], 1), (self._names[t], 1)]
                else:
                    shift = (combined @ self._reduced[product].inverse()).shift
                    letters = [
                        (self._names[s], 1),
                        (self._names[t], 1),
                        (self._names[product], -1),
                    ]
                if any(f.denominator != 1 for f in shift):
                    raise StructuralError("translation outside the lattice")
                letters += _e_power([-int(f) for f in shift])
                relators.append(Word.make(letters))
        return GroupPresentation(tuple(names), tuple(relators))

    def _check_torsion_free(self):
        for s in self._sigmas:
            reduced = self._reduced[s]
            order = _matrix_order(reduced.linear)
            n_mat = _ID3
            power = reduced.linear
            for _ in range(order - 1):
                n_mat = tuple(
                    tuple(n_mat[i][j] + power[i][j] for j in range(3)) for i in range(3)
                )
                power = _mat_mul(power, reduced.linear)
            rhs = [-x for x in _mat_vec(n_mat, reduced.shift)]
            if lcm(*(f.denominator for f in rhs)) != 1:
                continue
            n_int = [[int(f) for f in row] for row in n_mat]
            if solve_integer(n_int, [int(f) for f in rhs]) is not None:
                raise StructuralError(
                    f"group has torsion over holonomy element {self._names[s]}"
                )

    def _holonomy_type(self):
        n = self.holonomy_order
        if n == 1:
            return "1"
        if n in (2, 3, 6):
            return f"Z{n}"
        if n == 4:
            if any(_matrix_order(s) == 4 for s in self.holonomy):
                return "Z4"
            return "Z2xZ2"
        raise StructuralError(
            f"holonomy order {n} is not realized by a closed flat 3-manifold"
        )

    def invariants(self):
        return (self.orientable, self.holonomy_type, (self.h1.rank, self.h1.torsion))


# -- comparison ----------------------------------------------------------


def _outcome(cls, generators):
    try:
        group = cls(generators)
    except StructuralError as exc:
        return ("error", str(exc))
    return (
        "group",
        group.holonomy,
        group.lattice,
        group.h1,
        group.invariants(),
    )


def _assert_agree(generators) -> tuple:
    fast = _outcome(FlatGroup, generators)
    assert fast == _outcome(_ReferenceFlatGroup, generators)
    return fast


def _cusp_generators(code: str):
    for vclass in vertex_classes(build_side_pairings(code)):
        yield [_affine(m) for _, m in vclass.stabilizer]


def _pool_manifolds(count: int) -> list[str]:
    rows = [line.split() for line in POOL.read_text().splitlines() if not line.startswith("#")]
    return [row[0] for row in rows if row[1] == "M"][:count]


TRANSLATIONS = [
    AffineMap.translation((1, 0, 0)),
    AffineMap.translation((0, 1, 0)),
    AffineMap.translation((0, 0, 1)),
]


def test_reference_groups_agree():
    for tag, group in reference_flat_groups().items():
        assert _assert_agree(group.generators)[0] == "group", tag


@pytest.mark.parametrize("code", ["14FF28", "1428BD", *_pool_manifolds(10)])
def test_cusp_groups_agree(code):
    for generators in _cusp_generators(code):
        assert _assert_agree(generators)[0] == "group", code


def test_cyclic_cover_kernel_groups_agree(monkeypatch):
    # the cusp groups K_n that the record of the n-th cyclic cover of
    # 14FF28 classifies, read off its certified map onto D_n
    analysis = CodeAnalysis("14FF28")
    images = filling._dihedral_certificate(analysis, filling.default_meridians("14FF28"))
    kernels = []

    def recording(generators):
        kernels.append(list(generators))
        return FlatGroup(kernels[-1])

    monkeypatch.setattr(filling, "FlatGroup", recording)
    for n in range(1, 31):
        filling.cover_record_from_dihedral_map(analysis, images, n, "spin")
    assert len(kernels) == 30 * len(analysis.classes)
    for generators in kernels:
        assert _assert_agree(generators)[0] == "group"


def test_pool_cusp_groups_make_no_fraction(monkeypatch):
    # every horospherical action on the pool is integral, and FlatGroup
    # keeps each group in its integer lattice coordinates
    classes = [
        vclass
        for code in _pool_manifolds(10)
        for vclass in vertex_classes(build_side_pairings(code))
    ]
    made = []
    original = Fraction.__new__

    def counted(cls, *args, **kwargs):
        made.append(args)
        return original(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", staticmethod(counted))
    assert Fraction(1, 2) * 3 == Fraction(3, 2) and len(made) >= 2
    made.clear()
    groups = [cusp_flat_group(vclass) for vclass in classes]
    assert made == []
    assert len(groups) == len(classes) > 10


def test_first_homology_takes_a_row_per_closing_edge(monkeypatch):
    # three conjugation rows per kept generator and one row per closing
    # edge of the holonomy walk, over the lattice basis and the kept
    # generators: Z2xZ2 on two kept generators closes 2 * 4 - 3 edges
    references = reference_flat_groups()
    shapes = {}
    original = flatgroups.cokernel_invariants

    def recording(rows, n):
        shapes[tag] = (len(rows), n)
        return original(rows, n)

    monkeypatch.setattr(flatgroups, "cokernel_invariants", recording)
    for tag, group in references.items():
        assert _assert_agree(group.generators)[0] == "group", tag
    assert shapes == {
        "A": (0, 3),
        **{tag: (4, 4) for tag in "BCDEGH"},
        **{tag: (11, 5) for tag in "FIJ"},
    }


def test_translation_lattice_takes_the_holonomy_images():
    # t1 and the order-3 screw generate the group of type C: the lattice
    # needs the image sigma t1 for each holonomy element sigma
    screw = reference_flat_groups()["C"].generators[-1]
    fast = _assert_agree([TRANSLATIONS[0], screw])
    assert fast[0] == "group"
    assert fast[-1] == reference_flat_groups()["C"].invariants()


def test_torsion_message_agrees():
    outcomes = [_assert_agree(gens) for gens in _cusp_generators("11CA8B")]
    assert ("error", "group has torsion over holonomy element x1") in outcomes


def test_rank_message_agrees():
    assert _assert_agree(TRANSLATIONS[:2]) == (
        "error",
        "translation lattice has rank 2, expected 3",
    )


def test_holonomy_cap_message_agrees():
    # an integral linear part of infinite order
    shear = AffineMap.of(((1, 1, 0), (0, 1, 0), (0, 0, 1)), (0, 0, 0))
    assert _assert_agree(TRANSLATIONS + [shear]) == (
        "error",
        "holonomy exceeds 48 elements; not finite",
    )


# -- conjugated reference groups -----------------------------------------


def _conjugate(g: AffineMap, p, p_inv) -> AffineMap:
    """The map p g p^-1, with v :-> p v as the change of coordinates."""
    return AffineMap.of(_mat_mul(_mat_mul(p, g.linear), p_inv), _mat_vec(p, g.shift))


def _unimodular(moves):
    """The product of elementary matrices I + c E_ij, with its inverse."""
    p, p_inv = _ID3, _ID3
    for i, j, c in moves:
        e = tuple(
            tuple(Fraction(int(r == k)) + (c if (r, k) == (i, j) else 0) for k in range(3))
            for r in range(3)
        )
        e_inv = tuple(
            tuple(Fraction(int(r == k)) - (c if (r, k) == (i, j) else 0) for k in range(3))
            for r in range(3)
        )
        p, p_inv = _mat_mul(e, p), _mat_mul(p_inv, e_inv)
    return p, p_inv


moves = st.lists(
    st.tuples(st.integers(0, 2), st.integers(0, 2), st.integers(-2, 2)).filter(
        lambda m: m[0] != m[1]
    ),
    max_size=4,
)
STRETCH = (
    _frac_rows(((2, 0, 0), (0, 1, 0), (0, 0, 1))),
    _frac_rows(((Fraction(1, 2), 0, 0), (0, 1, 0), (0, 0, 1))),
)


@settings(max_examples=60, deadline=None)
@given(
    tag=st.sampled_from(sorted(reference_flat_groups())),
    change=st.one_of(moves.map(_unimodular), st.just(STRETCH)),
    order=st.randoms(use_true_random=False),
    repeat=st.integers(0, 3),
)
def test_conjugated_reference_groups_agree(tag, change, order, repeat):
    p, p_inv = change
    generators = [_conjugate(g, p, p_inv) for g in reference_flat_groups()[tag].generators]
    # AffineMap.of stores an int wherever the entry is integral
    for g in generators:
        entries = [x for row in g.linear for x in row] + list(g.shift)
        assert all(
            type(x) is int or (type(x) is Fraction and x.denominator > 1) for x in entries
        )
    # a redundant generator sharing the linear part of an earlier one
    generators.append(generators[repeat % len(generators)] @ generators[0])
    order.shuffle(generators)
    fast = _assert_agree(generators)
    assert fast[0] == "group"
    assert fast[-1] == reference_flat_groups()[tag].invariants()


def test_stretch_gives_fractional_linear_parts():
    p, p_inv = STRETCH
    c = reference_flat_groups()["C"].generators[-1]
    linear = _conjugate(c, p, p_inv).linear
    assert any(type(x) is Fraction and x.denominator > 1 for row in linear for x in row)

"""G_n's regular coset table, as the oracle of the cyclic cover's record.

`hyper4.filling.cyclic_cover` reads the record of the n-th cover of the
cyclic family off a certified map phi onto D_n, with no table.  Here the
table of G_n, the fundamental group filled along the default meridians
with the distinguished one raised to the n-th power, is built in one of
two ways: `written_table` writes D_n's table through phi with
`grouppres.dihedral_table`, in O(n), and `enumerated_table` enumerates
`fill(...)` with `todd_coxeter`, with no map.  A standardized table is
unique, so the two agree wherever the enumeration completes, and
`table_record` reads the record off either with
`hyper4.filling.cover_record_from_table`.

`rotation_half`, `kernel_generators`, `euclid` and
`cusp_intersection_group` are the records' helpers on general affine
maps, composed by `AffineMap`'s `@` and `inverse`: the package runs
them on the cube maps x -> D x + t of the cusp groups, D diagonal +-1
and t integral, and these are their oracle, also on the reference flat
groups, whose linear parts need not be diagonal and whose shifts need
not be integral.
"""

from math import gcd

from hyper4.analysis import CodeAnalysis
from hyper4.filling import (
    DEFAULT_COSET_LIMIT,
    DISTINGUISHED_CUSP,
    CoverRecord,
    Meridian,
    _cyclic_spin,
    _dihedral_certificate,
    cover_record_from_table,
    default_meridians,
    fill,
)
from hyper4.flatgroups import _ID3, AffineMap, FlatGroup, _mat_mul, _mat_vec
from hyper4.grouppres import (
    dihedral_inverse,
    dihedral_product,
    dihedral_table,
    schreier_transversal,
    todd_coxeter,
)


def power_meridians(code, n):
    """The default meridians with the distinguished one raised to the
    n-th power."""
    return [
        Meridian(m.cusp_index, m.word, n if m.cusp_index == DISTINGUISHED_CUSP[code] else 1)
        for m in default_meridians(code)
    ]


def written_table(code, n):
    """The analysis and D_n's table, written through the certified map."""
    analysis = CodeAnalysis(code)
    images = _dihedral_certificate(analysis, power_meridians(code, n))
    return analysis, dihedral_table(analysis.presentation.generators, images, n)


def enumerated_table(analysis, n, limit=DEFAULT_COSET_LIMIT):
    """G_n's table by coset enumeration within `limit` cosets; `fill`
    refuses a power beyond the limit."""
    return todd_coxeter(fill(analysis, power_meridians(analysis.code, n), limit), limit)


def table_record(analysis, n, table):
    """The n-th cover's record read off G_n's table, incomplete with it."""
    if not table.complete:
        return CoverRecord(code=analysis.code, complete=False)
    return cover_record_from_table(analysis, table, _cyclic_spin(analysis.code, n))


def rotation_half(pairs, identity):
    """Generators of P+ with their rotation exponents, and whether P has
    an element that phi sends to a reflection, from P's generators
    (g, phi(g)): the Schreier walk over the parity of phi, carrying each
    element's D_inf value beside it.  The elements need only `@` and
    `inverse`."""

    def product(x, y):
        return x[0] @ y[0], dihedral_product(x[1], y[1])

    def inverse(x):
        return x[0].inverse(), dihedral_inverse(x[1])

    def steps(e):
        return ((i, pair, e ^ pair[1][1]) for i, pair in enumerate(pairs))

    rotations = []
    reflected = False
    walk = schreier_transversal(0, steps, (identity, (0, 0)), product, inverse)
    for *_, new, (g, (k, _)) in walk:
        if new:
            reflected = True
        else:
            rotations.append((g, k))
    return rotations, reflected


def matrix_order(a, cap=48):
    power = a
    for n in range(1, cap + 1):
        if power == _ID3:
            return n
        power = _mat_mul(power, a)
    raise AssertionError(f"linear part does not have finite order <= {cap}")


def kernel_generators(rotations, m, n):
    """The distinct nontrivial affine maps of a generating set of
    psi^-1(nZ), where the pairs (g, psi(g)) generate P+ and psi(P+) = mZ:
    t from Euclid's algorithm, its order o and t^o the translation by v,
    t^(n / gcd(m, n)), and for each pair (s, a m) and 0 <= j < o the map
    g = t^j s t^-a t^-j and the translation by v - A v."""
    if not m:
        elements = [g for g, _ in rotations]
    else:
        t = euclid(rotations)
        order = matrix_order(t.linear)
        powers = [AffineMap.identity()]
        for _ in range(order):
            powers.append(powers[-1] @ t)
        v = powers.pop().shift

        def power(i):
            q, r = divmod(i, order)
            return AffineMap(powers[r].linear, tuple(a + q * x for a, x in zip(powers[r].shift, v)))

        elements = [power(n // gcd(m, n))]
        for s, k in rotations:
            q = s @ power(-k // m)
            for j in range(order):
                g = powers[j] @ q @ power(-j)
                elements.append(g)
                moved = _mat_vec(g.linear, v)
                elements.append(AffineMap.translation([a - b for a, b in zip(v, moved)]))
    one = AffineMap.identity()
    return [g for g in dict.fromkeys(elements) if g != one]


def euclid(rotations):
    """An element t with psi(t) = m > 0, the gcd of the exponents, by
    Euclid's algorithm on the pairs (s, psi(s))."""
    t, a = AffineMap.identity(), 0
    for s, b in rotations:
        while b:
            q, r = divmod(a, b)
            step = s.inverse() if q > 0 else s
            for _ in range(abs(q)):
                t = t @ step
            t, a, s, b = s, b, t, r
    return t if a > 0 else t.inverse()


def cusp_intersection_group(base, perms):
    """The size of coset 0's orbit under the flat group `base`, and the
    flat group of the distinct nontrivial Schreier elements of its walk,
    in discovery order; perms[i] is the coset permutation of
    base.generators[i]."""
    def steps(c):
        return ((i, g, perms[i][c]) for i, g in enumerate(base.generators))

    one = AffineMap.identity()
    size = 1
    elements = {}
    walk = schreier_transversal(0, steps, one, AffineMap.__matmul__, AffineMap.inverse)
    for *_, new, g in walk:
        if new:
            size += 1
        elif g != one:
            elements[g] = None
    return size, FlatGroup(elements)

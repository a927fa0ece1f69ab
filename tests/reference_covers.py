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
"""

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
from hyper4.grouppres import dihedral_table, todd_coxeter


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

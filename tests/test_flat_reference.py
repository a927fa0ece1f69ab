"""The ten reference flat 3-space groups and their recognizer.

The expected invariant triples below were derived by hand from the
standard Bieberbach generators (translation lattice plus holonomy
screws and glides) and frozen here; each run recomputes them from the
affine generators and a sympy Smith form cross-checks every first
homology group, read off the `Word` presentation of the lattice
extension that the reference pipeline of the flat-group oracle builds.
"""

import sympy
from sympy.matrices.normalforms import smith_normal_form as snf
import pytest
from test_flat_oracle import _ReferenceFlatGroup

from hyper4.flatgroups import (
    AffineMap,
    FlatGroup,
    StructuralError,
    classify_flat_group,
    reference_flat_groups,
)

EXPECTED = {
    "A": (True, "1", (3, ())),
    "B": (True, "Z2", (1, (2, 2))),
    "C": (True, "Z3", (1, (3,))),
    "D": (True, "Z4", (1, (2,))),
    "E": (True, "Z6", (1, ())),
    "F": (True, "Z2xZ2", (0, (4, 4))),
    "G": (False, "Z2", (2, (2,))),
    "H": (False, "Z2", (2, ())),
    "I": (False, "Z2xZ2", (1, (2, 2))),
    "J": (False, "Z2xZ2", (1, (4,))),
}

HOLONOMY_ORDERS = {
    "A": 1, "B": 2, "C": 3, "D": 4, "E": 6,
    "F": 4, "G": 2, "H": 2, "I": 4, "J": 4,
}


def test_ten_reference_groups():
    refs = reference_flat_groups()
    assert sorted(refs) == sorted(EXPECTED)
    for tag, group in refs.items():
        assert group.invariants() == EXPECTED[tag], tag
        assert group.holonomy_order == HOLONOMY_ORDERS[tag], tag


def test_invariant_triples_distinct():
    assert len(set(EXPECTED.values())) == 10


def test_classifier_round_trip():
    for tag, group in reference_flat_groups().items():
        assert classify_flat_group(group) == tag


def test_h1_against_sympy():
    for tag, group in reference_flat_groups().items():
        pres = _ReferenceFlatGroup(group.generators).presentation
        index = {name: i for i, name in enumerate(pres.generators)}
        rows = []
        for rel in pres.relators:
            row = [0] * len(pres.generators)
            for name, exp in rel.letters:
                row[index[name]] += exp
            rows.append(row)
        sm = snf(sympy.Matrix(rows), domain=sympy.ZZ)
        diag = [abs(int(sm[i, i])) for i in range(min(sm.shape))]
        torsion = tuple(d for d in diag if d > 1)
        rank = len(pres.generators) - sum(1 for d in diag if d != 0)
        orientable, _, (want_rank, want_torsion) = EXPECTED[tag]
        assert rank == want_rank, tag
        assert sorted(torsion) == sorted(want_torsion), tag
        assert (group.h1.rank, group.h1.torsion) == (rank, tuple(sorted(torsion))), tag


def test_references_torsion_free():
    # constructing each FlatGroup re-runs the torsion screen
    for tag, group in reference_flat_groups().items():
        rebuilt = FlatGroup(group.generators)
        assert rebuilt.invariants() == EXPECTED[tag]


def test_torsion_is_rejected():
    identity = ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    quarter_turn = AffineMap(((0, -1, 0), (1, 0, 0), (0, 0, 1)), (0, 0, 0))
    basis = [
        AffineMap(identity, (1, 0, 0)),
        AffineMap(identity, (0, 1, 0)),
        AffineMap(identity, (0, 0, 1)),
    ]
    with pytest.raises(StructuralError):
        FlatGroup(basis + [quarter_turn])


def test_unknown_invariants_rejected():
    # a plane group on a rank-2 lattice is not one of the ten space groups
    identity = ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    basis = [
        AffineMap(identity, (1, 0, 0)),
        AffineMap(identity, (0, 1, 0)),
    ]
    with pytest.raises((StructuralError, KeyError, ValueError)):
        classify_flat_group(FlatGroup(basis))


def test_singular_linear_part_rejected():
    identity = ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    basis = [AffineMap.of(identity, row) for row in identity]
    projection = AffineMap.of(((1, 0, 0), (0, 1, 0), (0, 0, 0)), (0, 0, 0))
    with pytest.raises(StructuralError, match="singular"):
        FlatGroup(basis + [projection])

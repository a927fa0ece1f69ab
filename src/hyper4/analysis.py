"""One manifold code's derived quantities, all computed on construction.

Building a `CodeAnalysis` is the manifold check.  It decodes the side
pairings, then computes, in this order: the ridge cycles, which must
close, and the presentation, which needs every ridge cycle matrix to be
the identity; the edge orbits, which need trivial stabilizers; the
vertex classes and the cusp groups, which must be torsion free; the
orientation signs and the Euler characteristic.  The first condition
that fails raises, so every analysis that exists is a manifold's, and
each verb that builds one reports the same first failure.  The verbs
and the cover builders read its plain attributes, and it lives only as
long as the operation that built it.
"""

from __future__ import annotations

from .cusp import VertexClass, cusp_flat_group, vertex_classes
from .flatgroups import FlatGroup, classify_flat_group
from .grouppres import GroupPresentation
from .pairing import FaceCycle, build_side_pairings, face_cycles, ridge_presentation

__all__ = ["CodeAnalysis"]


class CodeAnalysis:
    """The invariants of one manifold code's side pairings; raises on the
    first manifold condition the code fails."""

    def __init__(self, code: str):
        self.code = code
        self.pairing_set = pairing_set = build_side_pairings(code)
        self.ridge_cycles: list[FaceCycle] = face_cycles(pairing_set, 2)
        self.presentation: GroupPresentation = ridge_presentation(self.ridge_cycles)
        self.edge_orbits: list[FaceCycle] = face_cycles(pairing_set, 1)
        self.classes: list[VertexClass] = vertex_classes(pairing_set)
        # the flat group and flat type of each cusp, in class order
        self.cusps: list[tuple[FlatGroup, str]] = [
            (g, classify_flat_group(g)) for g in map(cusp_flat_group, self.classes)
        ]
        # the orientation sign of each letter, in letter order
        self.signs = {p.letter: p.sign for p in pairing_set.pairings}
        self.chi = (
            1 - len(pairing_set.pairings) + len(self.ridge_cycles) - len(self.edge_orbits)
        )

"""One code's derived quantities, each computed on first use and kept.

The verbs and the cover builders read them from one `CodeAnalysis`,
which lives only as long as the operation that built it.
"""

from __future__ import annotations

from .cusp import VertexClass, cusp_flat_group, vertex_classes
from .flatgroups import FlatGroup, classify_flat_group
from .grouppres import GroupPresentation
from .lorentz import orientation_sign
from .pairing import FaceCycle, ValidationReport, build_side_pairings, face_cycles
from .pairing import ridge_presentation, validate_pairings

__all__ = ["CodeAnalysis"]


class _kept:
    """`functools.cached_property` without its lock, which before Python
    3.12 every instance shares: census workers analysing different codes
    waited on one another, and a census took as long as they interleaved."""

    def __init__(self, func):
        self.func = func

    def __set_name__(self, owner, name: str) -> None:
        self.name = name

    def __get__(self, instance, owner=None):
        if instance is None:
            return self
        value = instance.__dict__[self.name] = self.func(instance)
        return value  # the instance attribute now hides this descriptor


class CodeAnalysis:
    """The invariants of one code's side pairings.  The order in which
    attributes are first read decides which error a bad code reports."""

    def __init__(self, code: str):
        self.code = code
        self.pairing_set = build_side_pairings(code)

    @_kept
    def report(self) -> ValidationReport:
        return validate_pairings(self.pairing_set)

    @_kept
    def ridge_cycles(self) -> list[FaceCycle]:
        return face_cycles(self.pairing_set, 2)

    @_kept
    def edge_orbits(self) -> list[FaceCycle]:
        return face_cycles(self.pairing_set, 1)

    @_kept
    def presentation(self) -> GroupPresentation:
        return ridge_presentation(self.ridge_cycles)

    @_kept
    def chi(self) -> int:
        return 1 - len(self.pairing_set.pairings) + len(self.ridge_cycles) - len(self.edge_orbits)

    @_kept
    def signs(self) -> dict[str, int]:
        """Orientation sign of each letter, in letter order."""
        return {p.letter: orientation_sign(p.matrix) for p in self.pairing_set.pairings}

    @_kept
    def classes(self) -> list[VertexClass]:
        return vertex_classes(self.pairing_set)

    @_kept
    def cusps(self) -> list[tuple[FlatGroup, str]]:
        """The flat group and flat type of each cusp, built class by class."""
        return [(g, classify_flat_group(g)) for g in map(cusp_flat_group, self.classes)]

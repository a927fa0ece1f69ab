"""Exact arithmetic for side-pairing codes on the hyperbolic 24-cell.

The package decodes six-character pairing codes into integral Lorentz
matrix groups, verifies the face identifications, computes fundamental
groups, cusp cross-sections, cyclic covers, and fillings, and matches
closed invariants against the classification of closed simply connected
4-manifolds.  Everything runs over the integers and rationals; there is
no floating point anywhere.
"""

__version__ = "0.1.0"

# Public API: every name imported below is re-exported.
from .analysis import CodeAnalysis
from .cell24 import Cell24Complex, the_24_cell
from .cusp import (
    ETA_TABLE,
    VertexClass,
    cusp_flat_group,
    eta,
    horospherical_action,
    signature,
    vertex_classes,
)
from .filling import (
    DEFAULT_MERIDIANS,
    DOUBLE_COVER_SPIN,
    ClassificationResult,
    CoverRecord,
    Meridian,
    classify_filled_cover,
    classify_homeo,
    cyclic_cover,
    default_meridians,
    double_cover_record,
    fill,
    parse_meridian_lines,
    validate_meridians,
)
from .flatgroups import (
    AffineMap,
    FlatGroup,
    StructuralError,
    classify_flat_group,
    reference_flat_groups,
)
from .grouppres import (
    AbelianInvariants,
    CosetTable,
    GroupPresentation,
    abelianization,
    character_coset_table,
    parse_presentation,
    quotient,
    reidemeister_schreier,
    schreier_rewrite,
    tietze_simplify,
    todd_coxeter,
)
from .lorentz import (
    IDENTITY,
    LorentzMatrix,
    LorentzVector,
    lorentz_product,
    reflection_matrix,
)
from .pairing import (
    CodeError,
    FaceCycle,
    SidePairing,
    SidePairingSet,
    build_side_pairings,
    face_cycles,
    fundamental_group,
    parse_census_lines,
    parse_code,
    validate_pairings,
)
from .words import EMPTY_WORD, Word, parse_word

"""Cusp fillings, cyclic covers, and homeomorphism classification.

Filling kills chosen parabolic words (meridians) in the fundamental
group.  The cyclic family quotients by the default meridians with the
distinguished one raised to a power, determines the resulting regular
cover by coset enumeration, and computes the cover's cusps, Euler
characteristic, orientability, and signature exactly.  Closed invariant
triples are matched against the Freedman-Donaldson classification of
closed simply connected 4-manifolds.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

from .analysis import CodeAnalysis
from .cusp import VertexClass, signature
from .flatgroups import AffineMap, FlatGroup, classify_flat_group
from .grouppres import (
    DEFAULT_COSET_LIMIT,
    DEFAULT_TIETZE_EFFORT,
    CosetTable,
    GroupPresentation,
    character_coset_table,
    orbit_edges,
    quotient,
    reidemeister_schreier,
    schreier_rewrite,
    schreier_transversal,
    tietze_simplify,
    todd_coxeter,
)
from .pairing import SidePairingSet
from .words import Word, parse_word

__all__ = [
    "Meridian",
    "DEFAULT_MERIDIANS",
    "DISTINGUISHED_CUSP",
    "DOUBLE_COVER_SPIN",
    "default_meridians",
    "parse_meridian_lines",
    "validate_meridians",
    "fill",
    "CoverRecord",
    "cover_record_from_table",
    "cyclic_cover",
    "double_cover_record",
    "ClassificationResult",
    "classify_homeo",
    "conditional_verdicts",
    "classify_filled_cover",
]


@dataclass(frozen=True)
class Meridian:
    """A parabolic word to kill, attached to one cusp class."""

    cusp_index: int
    word: Word
    exponent: int = 1

    @property
    def relator(self) -> Word:
        return self.word**self.exponent


# Fiber translations of the cusp cross-sections, one per vertex class,
# in class order.  Only codes listed here have a canonical choice.
DEFAULT_MERIDIANS: dict[str, tuple[tuple[int, str], ...]] = {
    "14FF28": ((0, "Eg"), (1, "c"), (2, "a"), (3, "k"), (4, "j")),
}

# Which cusp's meridian is raised to the n-th power in the cyclic family.
DISTINGUISHED_CUSP: dict[str, int] = {"14FF28": 1}

# Orientation double covers known to admit a spin structure.  Supplied as
# configuration, not computed here; the classification path reports
# conditional verdicts for codes absent from this table.
DOUBLE_COVER_SPIN: dict[str, bool] = {"14FF28": True}


def default_meridians(code: str) -> list[Meridian]:
    try:
        entries = DEFAULT_MERIDIANS[code]
    except KeyError:
        raise ValueError(f"no default meridians are on record for code {code}") from None
    return [Meridian(i, parse_word(w)) for i, w in entries]


def parse_meridian_lines(lines) -> list[Meridian]:
    """Parse 'cusp-index : word ^ exponent' lines ('#' starts a comment,
    the exponent defaults to 1)."""
    out = []
    for lineno, raw in enumerate(lines, 1):
        text = raw.split("#", 1)[0].strip()
        if not text:
            continue
        if ":" not in text:
            raise ValueError(f"line {lineno}: expected 'cusp-index : word ^ exponent'")
        left, right = text.split(":", 1)
        try:
            index = int(left.strip())
        except ValueError:
            raise ValueError(f"line {lineno}: bad cusp index {left.strip()!r}") from None
        rest = right.strip()
        exponent = 1
        if "^" in rest:
            rest, etext = rest.split("^", 1)
            try:
                exponent = int(etext.strip())
            except ValueError:
                raise ValueError(f"line {lineno}: bad exponent {etext.strip()!r}") from None
        if exponent == 0:
            raise ValueError(f"line {lineno}: exponent must be nonzero")
        out.append(Meridian(index, parse_word(rest.strip()), exponent))
    return out


def validate_meridians(
    pairing_set: SidePairingSet,
    classes: list[VertexClass],
    meridians: list[Meridian],
) -> None:
    """Every meridian word must lie in the stabilizer of its cusp: its
    matrix has to fix some ideal vertex of the class."""
    for m in meridians:
        if not 0 <= m.cusp_index < len(classes):
            raise ValueError(
                f"meridian {m.word}: cusp index {m.cusp_index} out of range"
            )
        _rebased_meridian(pairing_set, classes[m.cusp_index], m)


def fill(
    analysis: CodeAnalysis, meridians: list[Meridian], limit: int = DEFAULT_COSET_LIMIT
) -> GroupPresentation:
    """Quotient of the fundamental group by the meridian relators.

    The presentation is built for coset enumeration within `limit`
    cosets, so a meridian power beyond the limit is refused before its
    relator is expanded."""
    validate_meridians(analysis.pairing_set, analysis.classes, meridians)
    if limit <= 0:
        raise ValueError("coset limit must be positive")
    for m in meridians:
        if abs(m.exponent) > limit:
            raise ValueError(
                f"meridian {m.word} ^ {m.exponent}: the exponent exceeds the coset limit {limit}"
            )
    return quotient(analysis.presentation, [m.relator for m in meridians])


def _orbit_partition(perms, size: int) -> list[list[int]]:
    """Orbits of {0..size-1} under the group the permutations generate."""

    def steps(c):
        return ((p, p[c]) for p in perms)

    seen: set[int] = set()
    orbits = []
    for start in range(size):
        if start in seen:
            continue
        orbit = [start] + [d for _, _, d, new in orbit_edges(start, steps) if new]
        seen.update(orbit)
        orbits.append(sorted(orbit))
    return orbits


def _cusp_intersection_group(base: FlatGroup, perms) -> FlatGroup:
    """Stabilizer-intersect-kernel as a flat group, generated by the
    distinct nontrivial Schreier elements of the base cusp group's action
    on the cosets, in discovery order; perms[i] is the coset permutation
    of base.generators[i], the action of the i-th stabilizer generator."""

    def steps(c):
        return ((i, g, perms[i][c]) for i, g in enumerate(base.generators))

    one = AffineMap.identity()
    walk = schreier_transversal(0, steps, one, AffineMap.__matmul__, AffineMap.inverse)
    return FlatGroup(dict.fromkeys(g for *_, new, g in walk if not new and g != one))


def _cover_face_counts(analysis: CodeAnalysis, d: int) -> dict:
    """Face class counts of a degree-d cover: d times the base's.  A
    ridge cycle word is a relator, so it fixes every coset of a complete
    table, and every edge orbit has a trivial stabilizer; each ridge and
    edge class therefore lifts to d classes."""
    return {
        "cells": d,
        "sides": d * len(analysis.pairing_set.pairings),
        "ridges": d * len(analysis.ridge_cycles),
        "edges": d * len(analysis.edge_orbits),
        "chi": d * analysis.chi,
    }


def _schreier_orientable(letter_det: dict[str, int], table: CosetTable) -> bool:
    """Whether the cover is orientable: every Schreier element of the
    kernel must have determinant +1."""

    def steps(c):
        return ((name, sign, table.step(c, name, 1)) for name, sign in letter_det.items())

    orbit = schreier_transversal(0, steps, 1, operator.mul, lambda sign: sign)
    return all(new or sign == 1 for *_, new, sign in orbit)


@dataclass(frozen=True)
class CoverRecord:
    """Invariants of a finite regular cover determined by a coset table."""

    code: str
    complete: bool
    degree: int | None = None
    chi: int | None = None
    face_counts: dict | None = None
    cusp_lift_counts: tuple[int, ...] | None = None
    cusp_types_by_class: tuple[str, ...] | None = None
    cusp_types: str | None = None
    cusp_count: int | None = None
    orientable: bool | None = None
    sigma: int | None = None
    spin_status: str = "unknown"
    degree_over_double_cover: int | None = None


def cover_record_from_table(
    analysis: CodeAnalysis, table: CosetTable, spin_status: str
) -> CoverRecord:
    d = table.index
    lift_counts = []
    tags = []
    for vclass, (base, _) in zip(analysis.classes, analysis.cusps):
        perms = [table.permutation(w) for w, _ in vclass.stabilizer]
        lift_counts.append(len(_orbit_partition(perms, d)))
        group = _cusp_intersection_group(base, perms)
        tags.append(classify_flat_group(group))
    all_cusps = "".join(t * c for t, c in zip(tags, lift_counts))
    orientable = _schreier_orientable(analysis.signs, table)
    sigma = signature(all_cusps) if orientable else None
    face = _cover_face_counts(analysis, d)
    base_orientable = all(s == 1 for s in analysis.signs.values())
    over_double = d // 2 if orientable and not base_orientable else None
    return CoverRecord(
        code=analysis.code,
        complete=True,
        degree=d,
        chi=face["chi"],
        face_counts=face,
        cusp_lift_counts=tuple(lift_counts),
        cusp_types_by_class=tuple(tags),
        cusp_types=all_cusps,
        cusp_count=sum(lift_counts),
        orientable=orientable,
        sigma=sigma,
        spin_status=spin_status,
        degree_over_double_cover=over_double,
    )


def _cyclic_table(code: str, n: int, limit: int) -> tuple[CodeAnalysis, CosetTable]:
    if n < 1:
        raise ValueError("the cyclic parameter must be a positive integer")
    analysis = CodeAnalysis(code)
    meridians = [
        Meridian(m.cusp_index, m.word, n if m.cusp_index == DISTINGUISHED_CUSP[code] else 1)
        for m in default_meridians(code)
    ]
    return analysis, todd_coxeter(fill(analysis, meridians, limit), limit)


def _cyclic_record(analysis: CodeAnalysis, n: int, table: CosetTable) -> CoverRecord:
    if not table.complete:
        return CoverRecord(code=analysis.code, complete=False, spin_status="unknown")
    spin = DOUBLE_COVER_SPIN.get(analysis.code, False) and n % 2 == 1
    return cover_record_from_table(analysis, table, "spin" if spin else "unknown")


def cyclic_cover(code: str, n: int, limit: int = DEFAULT_COSET_LIMIT) -> CoverRecord:
    """The regular cover attached to killing the default meridians with
    the distinguished one raised to the n-th power."""
    analysis, table = _cyclic_table(code, n, limit)
    return _cyclic_record(analysis, n, table)


def double_cover_record(analysis: CodeAnalysis) -> CoverRecord:
    """The analysed code's orientation double cover, by the determinant character."""
    table = character_coset_table(analysis.presentation, analysis.signs)
    spin = "spin" if DOUBLE_COVER_SPIN.get(analysis.code, False) else "unknown"
    return cover_record_from_table(analysis, table, spin)


@dataclass(frozen=True)
class ClassificationResult:
    """Homeomorphism type of a closed simply connected 4-manifold."""

    verdict: str
    chi: int
    sigma: int
    spin: bool
    params: dict
    outside_scope: bool = False


def classify_homeo(
    chi: int, sigma: int, spin: bool, simply_connected: bool
) -> ClassificationResult:
    """Match (chi, sigma, spin) against the closed simply connected
    homeomorphism types; impossible triples raise ValueError."""
    if not simply_connected:
        raise ValueError(
            "impossible invariants: classification requires a certified trivial fundamental group"
        )
    # chi = 2 + b2 and sigma = b2 mod 2
    if chi < 2:
        raise ValueError(
            f"impossible invariants: Euler characteristic must be at least 2, got {chi}"
        )
    if (sigma - chi) % 2 != 0:
        raise ValueError(
            f"impossible invariants: signature must share the parity of chi, got sigma = {sigma}"
        )
    if abs(sigma) > chi - 2:
        raise ValueError(
            f"impossible invariants: |sigma| = {abs(sigma)} exceeds chi - 2 = {chi - 2}"
        )
    if spin and sigma % 16 != 0:
        raise ValueError(
            f"impossible invariants: a spin 4-manifold has signature divisible by 16, got {sigma}"
        )
    b2 = chi - 2
    if chi == 2:
        if not spin:
            raise ValueError(
                "impossible invariants: chi = 2 forces S^4, which is spin"
            )
        return ClassificationResult("S^4", chi, sigma, spin, {})
    if spin:
        if sigma == 0:
            k = b2 // 2
            return ClassificationResult(
                f"#_{k}(S^2xS^2)", chi, sigma, spin, {"k": k}
            )
        m = sigma // 8
        k = (b2 - abs(sigma)) // 2
        return ClassificationResult(
            f"#_{m}ME8#_{k}(S^2xS^2)",
            chi,
            sigma,
            spin,
            {"m": m, "k": k},
            outside_scope=True,
        )
    m = (b2 + sigma) // 2
    k = (b2 - sigma) // 2
    return ClassificationResult(
        f"#_{m}CP^2#_{k}CP^2bar", chi, sigma, spin, {"m": m, "k": k}
    )


def conditional_verdicts(chi: int, sigma: int) -> dict:
    """The verdicts of a simply connected (chi, sigma) under "if_spin" and
    "if_not_spin": a ClassificationResult, or why the triple is impossible."""
    verdicts: dict = {}
    for flag, key in ((True, "if_spin"), (False, "if_not_spin")):
        try:
            verdicts[key] = classify_homeo(chi, sigma, flag, True)
        except ValueError as exc:
            verdicts[key] = str(exc)
    return verdicts


def _rebased_meridian(
    pairing_set: SidePairingSet, vclass: VertexClass, meridian: Meridian
) -> Word:
    """Conjugate the meridian word into the stabilizer of the class
    representative, so cover cusp orbits and meridian lifts share one
    base point."""
    matrix = pairing_set.evaluate(meridian.word)
    for vertex, tau in zip(vclass.members, vclass.transversals):
        if matrix.apply(vertex) == vertex:
            return tau.inverse() * meridian.word * tau
    raise ValueError(
        f"meridian {meridian.word} is not in the stabilizer of cusp {meridian.cusp_index}"
    )


def _lifted_meridians(
    analysis: CodeAnalysis, table: CosetTable, meridians: list[Meridian]
) -> list[Word]:
    """One meridian relator per cover cusp: the rebased meridian raised
    to its return time, conjugated to the lift's coset and rewritten in
    Schreier generators."""
    out = []
    for m in meridians:
        vclass = analysis.classes[m.cusp_index]
        perms = [table.permutation(w) for w, _ in vclass.stabilizer]
        base = _rebased_meridian(analysis.pairing_set, vclass, m) ** m.exponent
        perm = table.permutation(base)
        for orbit in _orbit_partition(perms, table.index):
            q = orbit[0]
            k = 1
            c = perm[q]
            while c != q:
                k += 1
                c = perm[c]
            out.append(schreier_rewrite(table, base**k, q))
    return out


def classify_filled_cover(
    code: str,
    n: int,
    limit: int = DEFAULT_COSET_LIMIT,
    tietze_effort: int = DEFAULT_TIETZE_EFFORT,
) -> dict:
    """Fill every cusp of the cyclic cover along the lifted meridians,
    certify simple connectivity by coset enumeration, and classify.

    Returns the cover's record under "cover" (the same record as
    `cyclic_cover`) and a status of "certified", "conditional" (spin
    undetermined), or "unverified" (an enumeration exceeded the limit).

    `tietze_effort` bounds this function's own Tietze pass over the
    filled presentation, and the "presentation" counts describe that
    pass's result.  The certificate's `todd_coxeter` simplifies that
    result again at `DEFAULT_TIETZE_EFFORT` before it enumerates, so the
    counts are not those of the presentation enumerated, and the effort
    does not bound the work spent before the certificate."""
    if tietze_effort < 0:
        raise ValueError("tietze effort must be non-negative")
    analysis, table = _cyclic_table(code, n, limit)
    record = _cyclic_record(analysis, n, table)
    if not table.complete:
        return {
            "cover": record,
            "status": "unverified",
            "reason": f"coset enumeration did not complete within {limit} cosets",
        }
    subgroup_pres = reidemeister_schreier(analysis.presentation, table)
    lifted = _lifted_meridians(analysis, table, default_meridians(code))
    filled = quotient(subgroup_pres, lifted)
    simplified = tietze_simplify(filled, tietze_effort)
    cert = todd_coxeter(simplified, limit)
    out = {
        "cover": record,
        "filled_cusps": len(lifted),
        "presentation": {
            "generators": len(simplified.generators),
            "relators": len(simplified.relators),
        },
    }
    if not (cert.complete and cert.index == 1):
        out["status"] = "unverified"
        out["reason"] = "could not certify the filled fundamental group trivial"
        return out
    out["simply_connected"] = True
    if record.spin_status == "spin":
        out["status"] = "certified"
        out["verdict"] = classify_homeo(record.chi, record.sigma, True, True)
    else:
        out["status"] = "conditional"
        out["verdicts"] = conditional_verdicts(record.chi, record.sigma)
    return out

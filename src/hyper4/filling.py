"""Cusp fillings, cyclic covers, and homeomorphism classification.

Filling kills chosen parabolic words (meridians) in the fundamental
group.  The cyclic family quotients by the default meridians with the
distinguished one raised to a power n, and computes the resulting
regular cover's cusps, Euler characteristic, orientability, and
signature exactly.  The cover's deck group is the filled group G_n.  A
map onto the infinite dihedral group, checked once per call by a
certificate that does not depend on n, shows G_n = D_n; its table is
then written in O(n), and otherwise G_n is enumerated.  The filled cover
is certified simply connected when each cusp stabilizer conjugates its
meridian to itself or its inverse, a check on matrices that does not
depend on the cover.  Closed invariant triples are matched against the
Freedman-Donaldson classification of closed simply connected 4-manifolds.
"""

from __future__ import annotations

from dataclasses import dataclass

from .analysis import CodeAnalysis
from .cusp import VertexClass, signature
from .flatgroups import AffineMap, FlatGroup, classify_flat_group
from .grouppres import (
    DEFAULT_COSET_LIMIT,
    CosetTable,
    GroupPresentation,
    _enumerate,
    character_coset_table,
    dihedral_image,
    dihedral_table,
    quotient,
    schreier_transversal,
    todd_coxeter,
)
from .lorentz import IDENTITY, _unchecked_inverse
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

# A map phi of the fundamental group onto the infinite dihedral group
# D_inf = Z x| Z/2, for codes whose cyclic family has dihedral deck groups:
# each listed letter goes to r^k s^e, given as (k, e), and the other
# letters go to 1.  Not trusted: `_dihedral_certificate` checks it.
DIHEDRAL_MAPS: dict[str, dict[str, tuple[int, int]]] = {
    "14FF28": {"c": (1, 0), "d": (1, 0), "e": (0, 1), "f": (0, 1), "g": (0, 1), "h": (0, 1)},
}

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
    _check_fill(analysis, meridians, limit)
    return quotient(analysis.presentation, [m.relator for m in meridians])


def _check_fill(analysis: CodeAnalysis, meridians: list[Meridian], limit: int) -> None:
    """`fill`'s checks, in order, without building the presentation."""
    validate_meridians(analysis.pairing_set, analysis.classes, meridians)
    if limit <= 0:
        raise ValueError("coset limit must be positive")
    for m in meridians:
        if abs(m.exponent) > limit:
            raise ValueError(
                f"meridian {m.word} ^ {m.exponent}: the exponent exceeds the coset limit {limit}"
            )


def _cusp_intersection_group(base: FlatGroup, perms) -> tuple[int, FlatGroup]:
    """The size of coset 0's orbit under the base cusp group, and
    stabilizer-intersect-kernel as a flat group, generated by the
    distinct nontrivial Schreier elements of that orbit's walk, in
    discovery order; perms[i] is the coset permutation of
    base.generators[i], the action of the cusp's i-th generator (the
    half of its stabilizer elements that are kept before their inverse)."""

    def steps(c):
        return ((i, g, perms[i][c]) for i, g in enumerate(base.generators))

    one = AffineMap.identity()
    size = 1
    elements: dict[AffineMap, None] = {}
    walk = schreier_transversal(0, steps, one, AffineMap.__matmul__, AffineMap.inverse)
    for *_, new, g in walk:
        if new:
            size += 1
        elif g != one:
            elements[g] = None
    return size, FlatGroup(elements)


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


def _orientable(letter_det: dict[str, int], table: CosetTable) -> bool:
    """Whether the cover is orientable: every Schreier element of the
    kernel must have determinant +1, that is the cosets take signs with
    sign(c . x) = sign(c) det(x) for every coset c and letter x.  A
    breadth-first walk over the letters' columns gives coset 0 the sign
    +1 and stops at the first edge that disagrees."""
    columns = [(table.column(name, 1), det) for name, det in letter_det.items()]
    signs = [0] * table.index
    signs[0] = 1
    queue = [0]
    for c in queue:
        row = table.rows[c]
        for j, det in columns:
            image, sign = row[j], signs[c] * det
            if not signs[image]:
                signs[image] = sign
                queue.append(image)
            elif signs[image] != sign:
                return False
    return True


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
    """The record of the cover that a regular coset table determines.

    The table must be regular: its base coset's subgroup is normal, so
    the group acts on the cosets through the quotient group, each coset
    stabilizer is the same kernel, and every orbit of a cusp group has
    the size of coset 0's orbit.  A cusp class then lifts to d / |orbit|
    cusps, all of the type of coset 0's.  Both callers pass a regular
    table: `_cyclic_table` writes the filled group's table through its
    certified isomorphism onto D_n, or enumerates the filled group over
    its trivial subgroup, so the table is the quotient group's own (a
    standardized table is unique, so both ways give the same rows), and
    `double_cover_record` takes the kernel of the determinant character,
    a normal subgroup of index 2."""
    d = table.index
    lift_counts = []
    tags = []
    for vclass, (base, _) in zip(analysis.classes, analysis.cusps):
        perms = [table.permutation(w) for w, _ in vclass.generators]
        orbit, group = _cusp_intersection_group(base, perms)
        lift_counts.append(d // orbit)
        tags.append(classify_flat_group(group))
    all_cusps = "".join(t * c for t, c in zip(tags, lift_counts))
    orientable = _orientable(analysis.signs, table)
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


def _dihedral_certificate(
    analysis: CodeAnalysis, meridians: list[Meridian], limit: int
) -> dict[str, tuple[int, int]] | None:
    """The images of `DIHEDRAL_MAPS`' phi when it certifies G_n = D_n for
    every n, or None.  The certificate does not depend on n.

    Let c be the distinguished meridian and K = pi / <<other meridians>>,
    so that G_n = K / <<c^n>>.  phi must kill every relator and the other
    meridians, so it is defined on K; it must send c to r and some letter
    to a reflection, so it is onto D_inf and injective on <c>.  And <c>
    must have exactly 2 cosets in K, by an enumeration over the raw
    presentation within `limit` cosets.  Then phi maps the 2 cosets of
    <c> onto the 2 cosets of <r>, so its kernel lies in <c> and is
    trivial: phi is an isomorphism of K onto D_inf, and
    G_n = D_inf / <<r^n>> = D_n."""
    entries = DIHEDRAL_MAPS.get(analysis.code)
    if entries is None:
        return None
    images = {x: entries.get(x, (0, 0)) for x in analysis.presentation.generators}
    distinguished = DISTINGUISHED_CUSP[analysis.code]
    for m in meridians:
        expected = (1, 0) if m.cusp_index == distinguished else (0, 0)
        if dihedral_image(images, m.word) != expected:
            return None
    if not any(e for _, e in images.values()):
        return None
    if any(dihedral_image(images, r) != (0, 0) for r in analysis.presentation.relators):
        return None
    others = [m.word for m in meridians if m.cusp_index != distinguished]
    subgroup = [m.word for m in meridians if m.cusp_index == distinguished]
    table = _enumerate(quotient(analysis.presentation, others), limit, subgroup)
    return images if table.complete and len(table.rows) == 2 else None


def _cyclic_table(code: str, n: int, limit: int) -> tuple[CodeAnalysis, CosetTable]:
    """The regular table of G_n, the fundamental group filled along the
    default meridians with the distinguished one raised to the n-th power.

    When `_dihedral_certificate` holds, G_n = D_n and its table is
    written; the table is incomplete when its 2n cosets exceed `limit`,
    where the enumeration of G_n stops too.  Otherwise G_n is enumerated,
    and only then is the power relator c^n built."""
    if n < 1:
        raise ValueError("the cyclic parameter must be a positive integer")
    analysis = CodeAnalysis(code)
    meridians = [
        Meridian(m.cusp_index, m.word, n if m.cusp_index == DISTINGUISHED_CUSP[code] else 1)
        for m in default_meridians(code)
    ]
    _check_fill(analysis, meridians, limit)
    generators = analysis.presentation.generators
    images = _dihedral_certificate(analysis, meridians, limit)
    if images is None:
        filled = quotient(analysis.presentation, [m.relator for m in meridians])
        return analysis, todd_coxeter(filled, limit)
    if 2 * n > limit:
        return analysis, CosetTable(generators, (), False)
    return analysis, dihedral_table(generators, images, n)


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
    base point.  The group acts faithfully and is torsion-free, so a word
    whose matrix is the identity is the trivial element, and filling
    along it kills nothing: it is refused."""
    matrix = pairing_set.evaluate(meridian.word)
    if matrix == IDENTITY:
        raise ValueError(
            f"meridian {meridian.word} is the trivial element: its matrix is the identity"
        )
    for vertex, tau in zip(vclass.members, vclass.transversals):
        if matrix.apply(vertex) == vertex:
            return tau.inverse() * meridian.word * tau
    raise ValueError(
        f"meridian {meridian.word} is not in the stabilizer of cusp {meridian.cusp_index}"
    )


def _peripheral_failure(analysis: CodeAnalysis, meridians: list[Meridian]) -> str | None:
    """Why some generator p of a meridian's cusp conjugates the rebased
    meridian m to neither m nor m^-1, or None.  Compared on matrices:
    p M = M p or p M = M^-1 p.  The p that pass form a subgroup, so the
    first stabilizer element that fails is a generator, and the message
    is the one a walk over every stabilizer element would give."""
    for m in meridians:
        vclass = analysis.classes[m.cusp_index]
        matrix = analysis.pairing_set.evaluate(
            _rebased_meridian(analysis.pairing_set, vclass, m)
        )
        # a product of checked letters is Lorentzian
        inverse = _unchecked_inverse(matrix)
        for word, g in vclass.generators:
            conjugated = g @ matrix
            if conjugated != matrix @ g and conjugated != inverse @ g:
                return (
                    f"generator {word} of cusp {m.cusp_index} conjugates meridian "
                    f"{m.word} to neither itself nor its inverse"
                )
    return None


def classify_filled_cover(code: str, n: int, limit: int = DEFAULT_COSET_LIMIT) -> dict:
    """Fill every cusp of the cyclic cover along the lifted meridians,
    certify simple connectivity by the peripheral condition, and classify.

    Returns the cover's record under "cover" (the same record as
    `cyclic_cover`) and a status of "certified", "conditional" (spin
    undetermined), or "unverified" (the enumeration exceeded the limit,
    or a generator breaks the condition).

    The certificate ("peripheral"): the table is complete, so N is the
    normal closure of the meridians S, pi is the union of the cosets
    N t, and N is generated by N-conjugates of the t s t^-1.  A coset in
    the cover cusp of base coset q is N t_q p, with p in the cusp
    stabilizer P.  The p with p m p^-1 = m^(+-1) form a subgroup, so when
    P's generators pass, t s t^-1 is an N-conjugate of a power of the
    lifted meridian t_q m^k t_q^-1.  The lifted meridians then normally
    generate N, and the filled cover is simply connected (van Kampen).
    The side pairings present pi faithfully (Ratcliffe & Tschantz,
    Experiment. Math. 9, 2000), so equal matrices are equal elements."""
    analysis, table = _cyclic_table(code, n, limit)
    record = _cyclic_record(analysis, n, table)
    if not table.complete:
        return {
            "cover": record,
            "status": "unverified",
            "reason": f"coset enumeration did not complete within {limit} cosets",
        }
    out = {"cover": record, "filled_cusps": record.cusp_count, "certificate": "peripheral"}
    failure = _peripheral_failure(analysis, default_meridians(code))
    if failure is not None:
        out["status"] = "unverified"
        out["reason"] = failure
        return out
    out["simply_connected"] = True
    if record.spin_status == "spin":
        out["status"] = "certified"
        out["verdict"] = classify_homeo(record.chi, record.sigma, True, True)
    else:
        out["status"] = "conditional"
        out["verdicts"] = conditional_verdicts(record.chi, record.sigma)
    return out

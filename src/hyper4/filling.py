"""Cusp fillings, cyclic covers, and homeomorphism classification.

Filling kills chosen parabolic words (meridians) in the fundamental
group.  The cyclic family quotients by the default meridians with the
distinguished one raised to a power n, and computes the resulting
regular cover's cusps, Euler characteristic, orientability, and
signature exactly.  The cover's deck group is the filled group G_n.  A
map phi onto the infinite dihedral group, checked once per call by a
certificate that does not depend on n, shows G_n = D_n.  The record is
then read off phi, with no coset table: each cusp group's image in D_n
gives its lift count, and the part of the cusp group that phi sends into
<r^n>, generated by a number of cube maps that does not depend on n,
gives the lifts' flat type.  Every cusp group element is a cube map
x -> D x + t, D diagonal +-1 and t integral, composed by the kernel of
`cusp`, and becomes an affine map only where a flat group is
classified.  The orientation double cover is the n = 1 case of the map
that sends each orientation-reversing letter to a reflection.  A code
whose map fails the certificate gets no record, and the error names the
failed condition.  The filled cover is certified simply connected when
each cusp stabilizer conjugates its meridian to itself or its inverse, a
check on the cusp groups' cube maps that does not depend on the cover.
Closed invariant triples are matched against the Freedman-Donaldson
classification of closed simply connected 4-manifolds.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

from .analysis import CodeAnalysis
from .cusp import (
    _IDENTITY,
    VertexClass,
    _affine,
    _compose,
    _cube_steps,
    _invert,
    _loop_cube_map,
    signature,
)
from .flatgroups import FlatGroup, classify_flat_group
from .grouppres import (
    DEFAULT_COSET_LIMIT,
    CosetTable,
    GroupPresentation,
    _enumerate,
    dihedral_image,
    dihedral_inverse,
    dihedral_product,
    quotient,
    schreier_transversal,
)
from .lorentz import IDENTITY
from .pairing import GENERATOR_LETTERS, SidePairingSet
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
    "cover_record_from_dihedral_map",
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
    the exponent defaults to 1).  A word may use only the generators
    a-l, with the message that evaluating it would give."""
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
        word = parse_word(rest.strip())
        # by name before reduction, so that a cancelling pair such as Zz
        # is refused as evaluating the word would refuse z
        for ch in rest:
            if ch.isalpha() and ch.lower() not in GENERATOR_LETTERS:
                raise ValueError(f"word uses unknown generator {ch.lower()!r}")
        out.append(Meridian(index, word, exponent))
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


def _cusp_intersection_group(generators: list[tuple], perms) -> tuple[int, FlatGroup]:
    """The size of coset 0's orbit under a cusp group, and
    stabilizer-intersect-kernel as a flat group, generated by the
    distinct nontrivial Schreier elements of that orbit's walk, in
    discovery order.  `generators` are the cube maps of the cusp's
    generators (the half of its stabilizer elements that are kept before
    their inverse), and perms[i] is the coset permutation of the i-th."""

    def steps(c):
        return ((i, g, perms[i][c]) for i, g in enumerate(generators))

    size = 1
    elements: dict[tuple, None] = {}
    walk = schreier_transversal(0, steps, _IDENTITY, _compose, _invert)
    for *_, new, g in walk:
        if new:
            size += 1
        elif g != _IDENTITY:
            elements[g] = None
    return size, FlatGroup(map(_affine, elements))


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
    """Invariants of a finite regular cover: read off a map onto D_n, or
    off a regular coset table."""

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
    cusps, all of the type of coset 0's.  No verb reads a table's record:
    on D_n's table it is the oracle of `cover_record_from_dihedral_map`,
    and on the table of a character, of `double_cover_record`."""
    d = table.index
    lift_counts = []
    tags = []
    for vclass in analysis.classes:
        perms = [table.permutation(w) for w, _ in vclass.generators]
        orbit, group = _cusp_intersection_group([g for _, g in vclass.generators], perms)
        lift_counts.append(d // orbit)
        tags.append(classify_flat_group(group))
    orientable = _orientable(analysis.signs, table)
    return _cover_record(analysis, d, lift_counts, tags, orientable, spin_status)


# the most cusps whose types a record lists, one character each: every
# cover within the default coset limit has at most 5 * 10^6
MAX_LISTED_CUSPS = 10**8


def _cover_record(
    analysis: CodeAnalysis,
    d: int,
    lift_counts: list[int],
    tags: list[str],
    orientable: bool,
    spin_status: str,
) -> CoverRecord:
    """The record of a degree-d regular cover from its lift counts, the
    cusp type of each class's lifts and its orientability."""
    count = sum(lift_counts)
    if count > MAX_LISTED_CUSPS:
        raise ValueError(f"the cover has {count} cusps, too many to list their types")
    all_cusps = "".join(t * c for t, c in zip(tags, lift_counts))
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
        cusp_count=count,
        orientable=orientable,
        sigma=sigma,
        spin_status=spin_status,
        degree_over_double_cover=over_double,
    )


def _rotation_half(pairs) -> tuple[list[tuple], bool]:
    """Generators of P+, the elements of a cusp group P that phi sends to
    rotations, each with its rotation exponent psi, and whether P has an
    element that phi sends to a reflection.

    `pairs` are P's generators (g, phi(g)), g a cube map and
    phi(g) = (k, e) in D_inf, and P+ has index 1 or 2.  The Schreier walk
    runs over the parity e of the images, from 0, and carries each
    element's D_inf value beside its cube map by the same products; a
    Schreier element returns to parity 0, so it is a rotation r^k."""

    def product(x, y):
        return _compose(x[0], y[0]), dihedral_product(x[1], y[1])

    def inverse(x):
        return _invert(x[0]), dihedral_inverse(x[1])

    def steps(e):
        return ((i, pair, e ^ pair[1][1]) for i, pair in enumerate(pairs))

    rotations = []
    reflected = False
    walk = schreier_transversal(0, steps, (_IDENTITY, (0, 0)), product, inverse)
    for *_, new, (g, (k, _)) in walk:
        if new:
            reflected = True
        else:
            rotations.append((g, k))
    return rotations, reflected


def _kernel_generators(rotations: list[tuple[tuple, int]], m: int, n: int) -> list[tuple]:
    """The distinct nontrivial cube maps of a generating set of
    K_n = psi^-1(nZ), where the pairs (g, psi(g)) generate P+ and
    psi(P+) = mZ, by a number of compositions that does not depend on n.

    When m = 0, K_n = P+.  Otherwise Euclid's algorithm on the pairs
    gives t with psi(t) = m; its linear part is diagonal +-1, of order
    o = 1 or 2, and T = t^o is the translation by a vector v.
    Reidemeister-Schreier over the transversal t^i, i in Z, generates
    ker psi by the t^i q t^-i, q = s t^-a for each pair (s, a m).  With
    i = l o + j, 0 <= j < o, that is T^l g T^-l = c^l g, where
    g = t^j q t^-j and c is the translation by v - D v, D the linear part
    of g.  So the g and the c generate ker psi, and
    K_n = ker psi x| <t^i> with i = n / gcd(m, n); a power t^i is
    t^(i mod o) shifted by (i div o) v, with no composition."""
    if not m:
        elements = [g for g, _ in rotations]
    else:
        t = _euclid(rotations)
        powers = [_IDENTITY] if t[:3] == (1, 1, 1) else [_IDENTITY, t]
        order = len(powers)
        v = _compose(powers[-1], t)[3:]

        def power(i: int) -> tuple:
            q, r = divmod(i, order)
            d0, d1, d2, s0, s1, s2 = powers[r]
            return (d0, d1, d2, s0 + q * v[0], s1 + q * v[1], s2 + q * v[2])

        elements = [power(n // gcd(m, n))]
        for s, k in rotations:
            q = _compose(s, power(-k // m))
            for j in range(order):
                g = _compose(_compose(powers[j], q), power(-j))
                elements.append(g)
                elements.append((1, 1, 1, *(x - d * x for d, x in zip(g, v))))
    return [g for g in dict.fromkeys(elements) if g != _IDENTITY]


def _euclid(rotations: list[tuple[tuple, int]]) -> tuple:
    """A cube map t with psi(t) = m > 0, the gcd of the exponents psi(s)
    of the pairs (s, psi(s)), by Euclid's algorithm on the elements: a
    pair (t, a) with (s, b) gives (s, b) and (t s^-q, a - q b)."""
    t, a = _IDENTITY, 0
    for s, b in rotations:
        while b:
            q, r = divmod(a, b)
            step = _invert(s) if q > 0 else s
            for _ in range(abs(q)):
                t = _compose(t, step)
            t, a, s, b = s, b, t, r
    return t if a > 0 else _invert(t)


def _pulls_back(signs: dict[str, int], images: dict[str, tuple[int, int]], n: int) -> bool:
    """Whether the letter signs are a character of D_n pulled back by phi.
    A character sends r^k s^e to (-1)^(a k + b e), with a = 1 only when n
    is even, since r^n must go to 1; a homomorphism is fixed by the
    letters."""
    pairs = [(images[x], sign) for x, sign in signs.items()]
    return any(
        all(sign == (-1) ** ((a * k + b * e) % 2) for (k, e), sign in pairs)
        for a in range(2 - n % 2)
        for b in (0, 1)
    )


def cover_record_from_dihedral_map(
    analysis: CodeAnalysis, images: dict[str, tuple[int, int]], n: int, spin_status: str
) -> CoverRecord:
    """The record of the regular cover whose deck group is D_n, read off a
    map phi of the fundamental group onto D_inf, each letter x going to
    images[x] = (k, e), that is r^k s^e, followed by D_inf -> D_n.  It is
    the record `cover_record_from_table` gives on D_n's table, and the
    number of cube-map compositions does not depend on n.

    The cover's subgroup is N = phi^-1(<r^n>).  A cusp group P acts on the
    2n cosets through its image in D_n, so its class lifts to 2n over
    that order, each lift of the type of P cap N.  Let P+ be the elements
    of P that phi sends to rotations r^psi, with psi(P+) = mZ: the image
    has n / gcd(m, n) rotations, and as many reflections when P+ is not
    all of P, and P cap N = psi^-1(nZ).  The cover is orientable when the
    determinant is trivial on N, that is when it is a character of D_n
    pulled back by phi."""
    lift_counts = []
    tags = []
    for vclass in analysis.classes:
        pairs = [(g, dihedral_image(images, w)) for w, g in vclass.generators]
        rotations, reflected = _rotation_half(pairs)
        m = gcd(*(k for _, k in rotations))
        lift_counts.append(gcd(m, n) * (1 if reflected else 2))
        kernel = _kernel_generators(rotations, m, n)
        tags.append(classify_flat_group(FlatGroup(map(_affine, kernel))))
    orientable = _pulls_back(analysis.signs, images, n)
    return _cover_record(analysis, 2 * n, lift_counts, tags, orientable, spin_status)


def _dihedral_certificate(
    analysis: CodeAnalysis, meridians: list[Meridian]
) -> dict[str, tuple[int, int]]:
    """The images of `DIHEDRAL_MAPS`' phi, which certify G_n = D_n for
    every n; a ValueError names the first condition that fails.  The
    certificate does not depend on n.

    Let c be the distinguished meridian and K = pi / <<other meridians>>,
    so that G_n = K / <<c^n>>.  phi must kill every relator and the other
    meridians, so it is defined on K; it must send c to r and some letter
    to a reflection, so it is onto D_inf and injective on <c>.  And <c>
    must have exactly 2 cosets in K, by an enumeration over the raw
    presentation within `DEFAULT_COSET_LIMIT` cosets (34 on 14FF28).
    Then phi maps the 2 cosets of <c> onto the 2 cosets of <r>, so its
    kernel lies in <c> and is trivial: phi is an isomorphism of K onto
    D_inf, and G_n = D_inf / <<r^n>> = D_n."""
    entries = DIHEDRAL_MAPS.get(analysis.code)
    if entries is None:
        raise ValueError(f"no map onto D_inf is on record for code {analysis.code}")
    images = {x: entries.get(x, (0, 0)) for x in analysis.presentation.generators}
    distinguished = DISTINGUISHED_CUSP[analysis.code]
    for m in meridians:
        expected = (1, 0) if m.cusp_index == distinguished else (0, 0)
        image = dihedral_image(images, m.word)
        if image != expected:
            raise ValueError(
                f"the map onto D_inf sends meridian {m.word} to {image}, not {expected}"
            )
    if not any(e for _, e in images.values()):
        raise ValueError("the map onto D_inf sends no letter to a reflection")
    for r in analysis.presentation.relators:
        if dihedral_image(images, r) != (0, 0):
            raise ValueError(f"the map onto D_inf does not kill relator {r}")
    others = [m.word for m in meridians if m.cusp_index != distinguished]
    subgroup = [m.word for m in meridians if m.cusp_index == distinguished]
    table = _enumerate(quotient(analysis.presentation, others), DEFAULT_COSET_LIMIT, subgroup)
    if not (table.complete and len(table.rows) == 2):
        raise ValueError(
            f"meridian {subgroup[0]} does not generate a subgroup of index 2 once the "
            f"other meridians are killed, by an enumeration within {DEFAULT_COSET_LIMIT} cosets"
        )
    return images


def _cyclic_spin(code: str, n: int) -> str:
    """The spin status of the n-th cover: the double cover's when n is odd."""
    return "spin" if DOUBLE_COVER_SPIN.get(code, False) and n % 2 == 1 else "unknown"


def _cyclic_cover(code: str, n: int, limit: int) -> tuple[CodeAnalysis, CoverRecord]:
    """The analysis and the record of the n-th cover, whose deck group
    G_n is the fundamental group filled along the default meridians with
    the distinguished one raised to the n-th power.  `fill`'s checks run
    first, then `_dihedral_certificate`, which shows G_n = D_n; the
    record is read off phi, and is incomplete when the cover's 2n cosets
    exceed `limit`."""
    if n < 1:
        raise ValueError("the cyclic parameter must be a positive integer")
    analysis = CodeAnalysis(code)
    meridians = [
        Meridian(m.cusp_index, m.word, n if m.cusp_index == DISTINGUISHED_CUSP[code] else 1)
        for m in default_meridians(code)
    ]
    _check_fill(analysis, meridians, limit)
    images = _dihedral_certificate(analysis, meridians)
    if 2 * n > limit:
        return analysis, CoverRecord(code=code, complete=False)
    return analysis, cover_record_from_dihedral_map(analysis, images, n, _cyclic_spin(code, n))


def cyclic_cover(code: str, n: int, limit: int = DEFAULT_COSET_LIMIT) -> CoverRecord:
    """The regular cover attached to killing the default meridians with
    the distinguished one raised to the n-th power."""
    return _cyclic_cover(code, n, limit)[1]


def double_cover_record(analysis: CodeAnalysis) -> CoverRecord:
    """The analysed code's orientation double cover: the D_1 cover of the
    map onto D_inf that sends each orientation-reversing letter to the
    reflection s and the others to 1."""
    if all(s == 1 for s in analysis.signs.values()):
        raise ValueError("character is trivial; kernel has index 1, not 2")
    images = {x: (0, 0 if s == 1 else 1) for x, s in analysis.signs.items()}
    spin = "spin" if DOUBLE_COVER_SPIN.get(analysis.code, False) else "unknown"
    return cover_record_from_dihedral_map(analysis, images, 1, spin)


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
    meridian m to neither m nor m^-1, or None.  Compared on cube maps:
    A_p A_m = A_m A_p or A_p A_m = A_m^-1 A_p, with A_m composed from the
    step maps along the vertex path of m's letters.  The p that pass form a
    subgroup, so the first stabilizer element that fails is a generator,
    and the message is the one a walk over every stabilizer element
    would give."""
    pairing_set = analysis.pairing_set
    moves = _cube_steps(pairing_set)
    vertex_index = pairing_set.cell.vertex_index
    for m in meridians:
        vclass = analysis.classes[m.cusp_index]
        rebased = _rebased_meridian(pairing_set, vclass, m)
        rep = vertex_index[vclass.representative.coords]
        action = _loop_cube_map(pairing_set, moves, rep, rebased)
        inverse = _invert(action)
        for word, g in vclass.generators:
            conjugated = _compose(g, action)
            if conjugated != _compose(action, g) and conjugated != _compose(inverse, g):
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
    undetermined), or "unverified" (the cover's record is incomplete
    within the limit, or a generator breaks the condition).

    The certificate ("peripheral"): the record is complete, so G_n is
    finite, N is the normal closure of the meridians S, pi is the union
    of the finitely many cosets N t, and N is generated by N-conjugates of the t s t^-1.  A coset in
    the cover cusp of base coset q is N t_q p, with p in the cusp
    stabilizer P.  The p with p m p^-1 = m^(+-1) form a subgroup, so when
    P's generators pass, t s t^-1 is an N-conjugate of a power of the
    lifted meridian t_q m^k t_q^-1.  The lifted meridians then normally
    generate N, and the filled cover is simply connected (van Kampen).
    The side pairings present pi faithfully (Ratcliffe & Tschantz,
    Experiment. Math. 9, 2000), and a cusp group acts faithfully on its
    cube chart, so equal cube maps are equal elements."""
    analysis, record = _cyclic_cover(code, n, limit)
    if not record.complete:
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

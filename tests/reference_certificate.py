"""The filled cover's group by Reidemeister-Schreier, Tietze and coset
enumeration, as the reference for the peripheral certificate in
`hyper4.filling.classify_filled_cover`.

`lifted_meridians` gives one relator per cover cusp: the rebased
meridian raised to its return time, conjugated to the lift's coset and
rewritten in Schreier generators.  `filled_cover` adds them to the
cover's Reidemeister-Schreier presentation, and `classify_by_enumeration`
simplifies that presentation by Tietze moves and enumerates its cosets;
index 1 proves the filled cover simply connected for that one n.
`orbit_partition` splits the cosets into a cusp group's orbits, one per
cover cusp; it is also the reference for a cover record's lift counts,
which read coset 0's orbit alone.

`peripheral_failure` checks the peripheral condition on the matrix of
every element of each cusp stabilizer, not on the cube maps of its
generating half, and `schreier_orientable`
reads a cover's orientability off the determinants of the Schreier
elements of a transversal: they are the references for
`hyper4.filling._peripheral_failure` and `hyper4.filling._orientable`.
"""

import operator

from reference_covers import enumerated_table, table_record

from hyper4.analysis import CodeAnalysis
from hyper4.filling import (
    _rebased_meridian,
    classify_homeo,
    conditional_verdicts,
    default_meridians,
)
from hyper4.grouppres import (
    DEFAULT_COSET_LIMIT,
    orbit_edges,
    quotient,
    reidemeister_schreier,
    schreier_rewrite,
    schreier_transversal,
    tietze_simplify,
    todd_coxeter,
)


def peripheral_failure(analysis, meridians):
    """Why some stabilizer element p of a meridian's cusp conjugates the
    rebased meridian m to neither m nor m^-1, or None."""
    for m in meridians:
        vclass = analysis.classes[m.cusp_index]
        matrix = analysis.pairing_set.evaluate(
            _rebased_meridian(analysis.pairing_set, vclass, m)
        )
        inverse = matrix.inverse()
        for word, _ in vclass.stabilizer:
            g = analysis.pairing_set.evaluate(word)
            conjugated = g @ matrix
            if conjugated != matrix @ g and conjugated != inverse @ g:
                return (
                    f"generator {word} of cusp {m.cusp_index} conjugates meridian "
                    f"{m.word} to neither itself nor its inverse"
                )
    return None


def schreier_orientable(letter_det, table) -> bool:
    """Whether the cover is orientable: every Schreier element of the
    kernel must have determinant +1."""

    def steps(c):
        return ((name, sign, table.step(c, name, 1)) for name, sign in letter_det.items())

    orbit = schreier_transversal(0, steps, 1, operator.mul, lambda sign: sign)
    return all(new or sign == 1 for *_, new, sign in orbit)


def orbit_partition(perms, size: int) -> list[list[int]]:
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


def lifted_meridians(analysis, table, meridians):
    out = []
    for m in meridians:
        vclass = analysis.classes[m.cusp_index]
        perms = [table.permutation(w) for w, _ in vclass.stabilizer]
        base = _rebased_meridian(analysis.pairing_set, vclass, m) ** m.exponent
        perm = table.permutation(base)
        for orbit in orbit_partition(perms, table.index):
            q = orbit[0]
            k = 1
            c = perm[q]
            while c != q:
                k += 1
                c = perm[c]
            out.append(schreier_rewrite(table, base**k, q))
    return out


def filled_cover(analysis, table, code):
    """The filled cover's presentation and its number of filled cusps."""
    lifted = lifted_meridians(analysis, table, default_meridians(code))
    return quotient(reidemeister_schreier(analysis.presentation, table), lifted), len(lifted)


def classify_by_enumeration(code, n, limit=DEFAULT_COSET_LIMIT):
    """What `classify_filled_cover` returns, certified by enumeration,
    with G_n enumerated too: "presentation" counts the simplified filled
    presentation in place of "certificate"."""
    analysis = CodeAnalysis(code)
    table = enumerated_table(analysis, n, limit)
    record = table_record(analysis, n, table)
    if not table.complete:
        return {
            "cover": record,
            "status": "unverified",
            "reason": f"coset enumeration did not complete within {limit} cosets",
        }
    filled, cusps = filled_cover(analysis, table, code)
    simplified = tietze_simplify(filled)
    cert = todd_coxeter(simplified, limit)
    out = {
        "cover": record,
        "filled_cusps": cusps,
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

"""Finitely presented groups: abelianization, coset enumeration, rewriting.

Words use the conventions of module words (left-to-right products).
Coset tables follow the right action of generators on right cosets;
columns are ordered all generators first, then all inverses.
"""

from __future__ import annotations

from collections import Counter, deque
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Hashable, Iterable, Iterator, Mapping, Sequence

from .intmat import smith_normal_form
from .words import Letter, Word, parse_word

__all__ = [
    "orbit_edges",
    "schreier_transversal",
    "GroupPresentation",
    "AbelianInvariants",
    "CosetTable",
    "abelianization",
    "todd_coxeter",
    "character_coset_table",
    "reidemeister_schreier",
    "schreier_rewrite",
    "quotient",
    "tietze_simplify",
    "parse_presentation",
]

# the coset limit of `todd_coxeter` and the elimination effort of
# `tietze_simplify` when the caller gives none
DEFAULT_COSET_LIMIT = 10**6
DEFAULT_TIETZE_EFFORT = 1000


@dataclass(frozen=True)
class GroupPresentation:
    generators: tuple[str, ...]
    relators: tuple[Word, ...]

    def __post_init__(self):
        if len(set(self.generators)) != len(self.generators):
            raise ValueError("generator names must be unique")
        known = set(self.generators)
        for r in self.relators:
            unknown = r.names() - known
            if unknown:
                raise ValueError(f"relator {r} uses unknown generators {sorted(unknown)}")

    def __str__(self) -> str:
        gens = " ".join(self.generators)
        rels = ", ".join(str(r) for r in self.relators)
        return f"<{gens} | {rels}>"


@dataclass(frozen=True)
class AbelianInvariants:
    """H = Z^rank + sum of Z/d for d in torsion, with d_i | d_{i+1}."""

    rank: int
    torsion: tuple[int, ...]

    def __str__(self) -> str:
        parts = []
        if self.rank:
            parts.append(f"Z^{self.rank}" if self.rank > 1 else "Z")
        parts.extend(f"Z/{d}" for d in self.torsion)
        return " + ".join(parts) if parts else "0"


def abelianization(pres: GroupPresentation) -> AbelianInvariants:
    """Invariants of the abelianized group, via Smith normal form of the
    relator exponent-sum matrix."""
    gens = pres.generators
    if not pres.relators:
        return AbelianInvariants(len(gens), ())
    matrix = [[r.exponent_sum(x) for x in gens] for r in pres.relators]
    d, _, _ = smith_normal_form(matrix)
    diag = [d[i][i] for i in range(min(len(d), len(gens)))]
    nonzero = [x for x in diag if x != 0]
    torsion = tuple(x for x in nonzero if x > 1)
    return AbelianInvariants(len(gens) - len(nonzero), torsion)


def orbit_edges(
    start: Hashable, steps: Callable[[Hashable], Iterable[tuple]]
) -> Iterator[tuple]:
    """Breadth-first orbit of start, the standard orbit algorithm (Holt,
    Eick & O'Brien, Handbook of Computational Group Theory, sec. 4.1).

    steps(p) gives the (label, image) pairs leaving point p, in a fixed
    order.  Points are expanded first in, first out, and every edge is
    yielded as (p, label, image, new) in discovery order.  new marks a
    spanning-tree edge, that is a Schreier transversal step; the other
    edges give the Schreier generators.  The edge is yielded before the
    next pair is drawn from steps, so a caller can stop at the first bad
    edge.
    """
    seen = {start}
    queue = deque([start])
    while queue:
        p = queue.popleft()
        for label, image in steps(p):
            new = image not in seen
            if new:
                seen.add(image)
                queue.append(image)
            yield p, label, image, new


def schreier_transversal(
    start: Hashable,
    steps: Callable[[Hashable], Iterable[tuple]],
    identity,
    product: Callable,
    inverse: Callable,
) -> Iterator[tuple]:
    """`orbit_edges` with a Schreier transversal in a group given by its
    identity, product and inverse (Holt, Eick & O'Brien, sec. 4.1).

    steps(p) gives the (label, g, image) triples leaving point p, g being
    the group element of the edge.  The transversal element of start is
    the identity, and a tree edge sets T[image] = product(T[p], g) and,
    once, its inverse.  Every edge is yielded as (p, label, image, new,
    element): element is T[image] on a tree edge (new), and otherwise the
    Schreier element product(product(T[p], g), T[image]^-1).  A left
    action, where g T[p] carries start to image, passes product(a, b) =
    b a.
    """
    trans = {start: identity}
    trans_inv = {start: identity}

    def labelled(p):
        return (((label, g), image) for label, g, image in steps(p))

    for p, (label, g), image, new in orbit_edges(start, labelled):
        moved = product(trans[p], g)
        if new:
            trans[image] = moved
            trans_inv[image] = inverse(moved)
            yield p, label, image, True, moved
        else:
            yield p, label, image, False, product(moved, trans_inv[image])


class _Exceeded(Exception):
    pass


@dataclass(frozen=True)
class CosetTable:
    """Completed coset table; rows[c][j] is the image of coset c under
    generator j (j < #gens) or its inverse (j >= #gens)."""

    generators: tuple[str, ...]
    rows: tuple[tuple[int, ...], ...]
    complete: bool

    @property
    def index(self) -> int:
        if not self.complete:
            raise ValueError("incomplete table has no index")
        return len(self.rows)

    def column(self, name: str, exp: int) -> int:
        j = self.generators.index(name)
        return j if exp == 1 else j + len(self.generators)

    def step(self, coset: int, name: str, exp: int) -> int:
        return self.rows[coset][self.column(name, exp)]

    def follow(self, coset: int, word: Word) -> int:
        for name, exp in word.letters:
            coset = self.step(coset, name, exp)
        return coset

    def permutation(self, word: Word) -> tuple[int, ...]:
        """The permutation c -> follow(c, word) of a complete table's
        cosets, composed from whole columns."""
        size = self.index  # raises on an incomplete table
        return _compose(self._columns, word, size)

    @cached_property
    def _columns(self) -> dict[Letter, tuple[int, ...]]:
        g = len(self.generators)
        columns = list(zip(*self.rows))
        return {
            (name, exp): columns[j if exp == 1 else j + g]
            for j, name in enumerate(self.generators)
            for exp in (1, -1)
        }


def _compose(
    columns: Mapping[Letter, Sequence[int]], word: Word, size: int
) -> tuple[int, ...]:
    """The permutation c -> c.word of range(size), one column per letter."""
    perm: Sequence[int] = range(size)
    for letter in word.letters:
        column = columns[letter]
        perm = [column[c] for c in perm]
    return tuple(perm)


def todd_coxeter(pres: GroupPresentation, limit: int = DEFAULT_COSET_LIMIT) -> CosetTable:
    """Coset enumeration of the trivial subgroup.

    The cosets are enumerated on the presentation that Tietze
    simplification at the default effort leaves, and the table is lifted
    back: the eliminated generators, last first, get the permutation of
    their substitution words, and each inverse column is the inverse
    permutation.  A standardized table is unique for the group and its
    base coset, so the result is the table an enumeration over `pres`
    itself would give (Holt, Eick & O'Brien, Handbook of Computational
    Group Theory, on coset enumeration and Tietze transformations).

    `limit` bounds the cosets the simplified enumeration defines.  When
    more would be defined, returns an incomplete table that makes no
    claim about the index.
    """
    if limit <= 0:
        raise ValueError("coset limit must be positive")
    simplified, eliminated = _tietze(pres, DEFAULT_TIETZE_EFFORT)
    table = _enumerate(simplified, limit)
    if not table.complete:
        return CosetTable(pres.generators, (), False)
    size = len(table.rows)
    columns = dict(table._columns)
    for name, word in reversed(eliminated):
        perm = _compose(columns, word, size)
        inverse = [0] * size
        for c, image in enumerate(perm):
            inverse[image] = c
        columns[name, 1] = perm
        columns[name, -1] = tuple(inverse)
    gens = pres.generators
    order = [columns[x, 1] for x in gens] + [columns[x, -1] for x in gens]
    rows = [tuple(column[c] for column in order) for c in range(size)]
    return CosetTable(gens, _standardize(rows, len(gens)), True)


def _enumerate(pres: GroupPresentation, limit: int) -> CosetTable:
    """Relator-driven (HLT) enumeration of the trivial subgroup, with row
    filling in first-in order; incomplete past `limit` cosets."""
    gens = pres.generators
    g = len(gens)
    ncols = 2 * g
    col_index = {name: j for j, name in enumerate(gens)}

    def col(letter: Letter) -> int:
        name, exp = letter
        return col_index[name] if exp == 1 else col_index[name] + g

    def inv(c: int) -> int:
        return c + g if c < g else c - g

    table: list[list[int | None]] = []
    parent: list[int] = []
    merge_queue: deque[int] = deque()

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    def define() -> int:
        if len(table) >= limit:
            raise _Exceeded
        table.append([None] * ncols)
        parent.append(len(table) - 1)
        return len(table) - 1

    def coincide(a: int, b: int) -> None:
        a, b = find(a), find(b)
        if a == b:
            return
        if b < a:
            a, b = b, a
        parent[b] = a
        merge_queue.append(b)

    def install(i: int, c: int, j: int) -> None:
        # record i.c = j and the mirrored j.c^-1 = i, merging on conflict
        for x, cc, y in ((i, c, j), (j, inv(c), i)):
            x, y = find(x), find(y)
            cur = table[x][cc]
            if cur is None:
                table[x][cc] = y
            elif find(cur) != y:
                coincide(cur, y)

    def drain_merges() -> None:
        while merge_queue:
            dead = merge_queue.popleft()
            live = find(dead)
            row = table[dead]
            table[dead] = [None] * ncols
            for c, v in enumerate(row):
                if v is not None:
                    install(live, c, find(v))

    def scan_and_fill(alpha: int, cols: Sequence[int]) -> None:
        while True:
            alpha = find(alpha)
            f, i = alpha, 0
            b, j = alpha, len(cols)
            while i < j and table[f][cols[i]] is not None:
                f = find(table[f][cols[i]])
                i += 1
            if i == j:
                if f != b:
                    coincide(f, b)
                    drain_merges()
                return
            while j > i and table[b][inv(cols[j - 1])] is not None:
                b = find(table[b][inv(cols[j - 1])])
                j -= 1
            if j == i:
                coincide(f, b)
                drain_merges()
                return
            if j == i + 1:
                install(f, cols[i], b)
                drain_merges()
                return
            # gap of two or more: define a coset to extend the forward scan
            n = define()
            install(f, cols[i], n)

    relator_cols = [[col(l) for l in r.letters] for r in pres.relators if r.letters]
    try:
        define()
        alpha = 0
        while alpha < len(table):
            if find(alpha) != alpha:
                alpha += 1
                continue
            for cols in relator_cols:
                scan_and_fill(alpha, cols)
                if find(alpha) != alpha:
                    break
            if find(alpha) == alpha:
                for c in range(ncols):
                    if table[alpha][c] is None:
                        n = define()
                        install(alpha, c, n)
            alpha += 1
    except _Exceeded:
        return CosetTable(gens, (), False)

    live = [i for i in range(len(table)) if find(i) == i]
    renumber = {old: new for new, old in enumerate(live)}
    rows = [
        tuple(renumber[find(table[old][c])] for c in range(ncols)) for old in live
    ]
    return CosetTable(gens, _standardize(rows, g), True)


def _coset_edges(rows: Sequence[tuple[int, ...]]) -> Iterator[tuple]:
    """Breadth-first edges of a coset table from coset 0, labelled by column."""
    return orbit_edges(0, lambda c: enumerate(rows[c]))


def _standardize(rows: list[tuple[int, ...]], g: int) -> tuple[tuple[int, ...], ...]:
    """Renumber cosets in breadth-first discovery order from coset 0."""
    order = [0] + [d for _, _, d, new in _coset_edges(rows) if new]
    if len(order) != len(rows):
        raise AssertionError("coset table is not transitive")
    pos = {c: i for i, c in enumerate(order)}
    return tuple(
        tuple(pos[rows[c][j]] for j in range(2 * g)) for c in order
    )


def character_coset_table(
    pres: GroupPresentation, signs: Mapping[str, int]
) -> CosetTable:
    """Two-coset table of the kernel of the {1,-1}-character sending each
    generator to the given sign.  Every relator must map to +1."""
    if all(signs[x] == 1 for x in pres.generators):
        raise ValueError("character is trivial; kernel has index 1, not 2")
    bits = [0 if signs[x] == 1 else 1 for x in pres.generators]
    rows = tuple(
        tuple((i ^ b) for b in bits) + tuple((i ^ b) for b in bits) for i in (0, 1)
    )
    table = CosetTable(pres.generators, rows, True)
    for r in pres.relators:
        if table.follow(0, r) != 0:
            raise ValueError(f"character does not vanish on relator {r}")
    return table


def schreier_rewrite(table: CosetTable, word: Word, start: int = 0) -> Word:
    """Rewrite t_start * word * t_end^-1 in the Schreier generators x<coset>.

    The trace must return to its starting coset (so the element lies in
    the subgroup the table enumerates).
    """
    out: list[Letter] = []
    c = start
    for name, exp in word.letters:
        if exp == 1:
            out.append((f"{name}{c}", 1))
            c = table.step(c, name, 1)
        else:
            c = table.step(c, name, -1)
            out.append((f"{name}{c}", -1))
    if c != start:
        raise ValueError(f"word {word} does not stabilize coset {start}")
    return Word.make(out)


def reidemeister_schreier(
    pres: GroupPresentation, table: CosetTable
) -> GroupPresentation:
    """Presentation of the subgroup enumerated by a complete coset table.

    Generators are one Schreier generator per (base generator, coset)
    pair, named like a0, a1, ...; relators are every base relator
    rewritten at every coset, plus one trivializing relator per spanning
    tree edge.
    """
    if not table.complete:
        raise ValueError("Reidemeister-Schreier needs a complete coset table")
    d = len(table.rows)
    names = tuple(f"{x}{c}" for x in pres.generators for c in range(d))
    relators = []
    for r in pres.relators:
        for c in range(d):
            relators.append(schreier_rewrite(table, r, c))
    g = len(table.generators)
    for c, j, d, new in _coset_edges(table.rows):
        if new:
            # an inverse edge c -> d under x^-1 is the generator x at coset d
            coset = c if j < g else d
            relators.append(Word.generator(f"{table.generators[j % g]}{coset}"))
    return GroupPresentation(names, tuple(relators))


def quotient(pres: GroupPresentation, extra_relators: Iterable[Word]) -> GroupPresentation:
    """The quotient by the normal closure of the given words."""
    extra = tuple(extra_relators)
    return GroupPresentation(pres.generators, pres.relators + extra)


def _least_rotation(letters: tuple[Letter, ...]) -> tuple[Letter, ...]:
    """The lexicographically least rotation, in time linear in the length.

    Two candidate starts i < j are compared k letters deep.  On a mismatch
    the loser is dropped with the k starts after it, none of which begins
    a smaller rotation than the winner's, so i + j grows by at least k + 1
    and stays below 3n.  When k reaches n the word is periodic, and i is
    the least start of its least rotation.
    """
    n = len(letters)
    doubled = letters + letters
    i, j, k = 0, 1, 0
    while j < n and k < n:
        a, b = doubled[i + k], doubled[j + k]
        if a == b:
            k += 1
            continue
        if a > b:
            i, j = j, max(i + k + 1, j + 1)
        else:
            j += k + 1
        k = 0
    return doubled[i : i + n]


def _cyclic_canonical(word: Word) -> tuple[Letter, ...]:
    letters = word.cyclic_reduce().letters
    if not letters:
        return ()
    # the inverse of a cyclically reduced word is cyclically reduced
    inverse = tuple((name, -exp) for name, exp in reversed(letters))
    return min(_least_rotation(letters), _least_rotation(inverse))


def tietze_simplify(
    pres: GroupPresentation, effort: int = DEFAULT_TIETZE_EFFORT
) -> GroupPresentation:
    """Simplify a presentation without changing the group.

    Rounds of: duplicate-relator removal, then elimination of a generator
    occurring exactly once in some relator when the substitution does not
    increase total relator length.  Relators are kept cyclically reduced.
    Each round eliminates the candidate with the least key (length change,
    relator length, relator index, name); `effort`, which must be
    non-negative, caps the number of eliminations.  Deterministic; never
    increases generator count or total length.

    The relators keep their order, each in a slot with its name counts
    and, once deduplicated, its cyclic canonical form; running totals, a
    name -> slots index and a canonical form -> slot map sit beside them.
    Only the relators that contain the eliminated generator are rewritten
    and re-canonicalized, and the next round drops identities and
    duplicates among those alone (on a collision the lower slot wins).
    Each relator's best candidate is kept, and recomputed only when that
    relator is rewritten or the total of one of its generators changes, so
    the result equals a full rescan of every relator in every round (Holt,
    Eick & O'Brien, Handbook of Computational Group Theory, on Tietze
    transformations).  When `effort` runs out, the last round's relators
    are returned as they stand, without that pass.
    """
    return _tietze(pres, effort)[0]


def _tietze(
    pres: GroupPresentation, effort: int
) -> tuple[GroupPresentation, list[tuple[str, Word]]]:
    """`tietze_simplify`, and its eliminations in order as (generator,
    substitution word) pairs; each substitution is written in the
    generators still present when it was made."""
    if effort < 0:
        raise ValueError("tietze effort must be non-negative")
    gens = list(pres.generators)
    eliminated: list[tuple[str, Word]] = []
    size = len(pres.relators)
    words: list[Word | None] = [None] * size  # slot -> relator, None once dropped
    counts: list[Counter | None] = [None] * size
    keys: list[tuple[Letter, ...] | None] = [None] * size
    totals: Counter = Counter()
    occurs: dict[str, set[int]] = {name: set() for name in gens}
    holder: dict[tuple[Letter, ...], int] = {}  # canonical form -> its slot
    best_of: dict[int, tuple] = {}  # slot -> its least candidate key
    stale: set[int] = set()  # slots whose candidate may have changed
    moved: set[str] = set()  # names whose totals changed since the last selection

    def place(slot: int, word: Word) -> None:
        words[slot] = word
        counts[slot] = Counter(name for name, _ in word.letters)
        totals.update(counts[slot])
        for name in counts[slot]:
            occurs[name].add(slot)
        moved.update(counts[slot])
        stale.add(slot)

    def clear(slot: int) -> None:
        totals.subtract(counts[slot])
        for name in counts[slot]:
            occurs[name].discard(slot)
        moved.update(counts[slot])
        stale.add(slot)
        if keys[slot] is not None:
            del holder[keys[slot]]
            keys[slot] = None
        words[slot] = None

    for slot, r in enumerate(pres.relators):
        place(slot, r.cyclic_reduce())

    touched: Iterable[int] = range(size)  # slots rewritten since the last dedup
    for _ in range(effort):
        for slot in touched:
            word = words[slot]
            if word.is_identity:
                clear(slot)
                continue
            key = _cyclic_canonical(word)
            other = holder.get(key)
            if other is not None:
                if other < slot:
                    clear(slot)
                    continue
                clear(other)
            keys[slot] = key
            holder[key] = slot

        # a slot's candidate reads its own word and the totals of its names
        for name in moved:
            stale.update(occurs[name])
        moved.clear()
        for slot in stale:
            best_of.pop(slot, None)
            word = words[slot]
            if word is None:
                continue
            length = len(word)
            best = None  # (delta, relator length, relator slot, generator)
            for name, cnt in counts[slot].items():
                if cnt != 1:
                    continue
                # occurs once in this relator, so k counts the other relators
                k = totals[name] - 1
                delta = k * (length - 2) - length
                if delta > 0:
                    continue
                candidate = (delta, length, slot, name)
                if best is None or candidate < best:
                    best = candidate
            if best is not None:
                best_of[slot] = best
        stale.clear()
        if not best_of:
            break
        _, _, i, name = min(best_of.values())
        r = words[i]
        j = next(idx for idx, (n, _) in enumerate(r.letters) if n == name)
        rotated = r.letters[j:] + r.letters[:j]
        rest = Word(rotated[1:])
        # relator is name^exp * rest = 1, so name = rest^(-exp)
        substitution = rest.inverse() if rotated[0][1] == 1 else rest
        eliminated.append((name, substitution))
        image = {1: substitution.letters, -1: substitution.inverse().letters}
        clear(i)
        touched = sorted(occurs[name])
        for slot in touched:
            other = words[slot]
            clear(slot)
            letters: list[Letter] = []
            for n, e in other.letters:
                if n == name:
                    letters.extend(image[e])
                else:
                    letters.append((n, e))
            place(slot, Word.make(letters).cyclic_reduce())
        gens.remove(name)
    simplified = GroupPresentation(tuple(gens), tuple(w for w in words if w is not None))
    return simplified, eliminated


def parse_presentation(text: str) -> GroupPresentation:
    """Parse the text format: a `gens: a b c` line, then one relator per line."""
    gens: tuple[str, ...] | None = None
    relators = []
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if gens is None:
            if not line.startswith("gens:"):
                raise ValueError("presentation must start with a 'gens:' line")
            gens = tuple(line[len("gens:"):].split())
            continue
        relators.append(_parse_relator(line))
    if gens is None:
        raise ValueError("presentation must start with a 'gens:' line")
    return GroupPresentation(gens, tuple(relators))


def _parse_relator(text: str) -> Word:
    if any(ch.isdigit() or ch == "^" for ch in text) or " " in text.strip():
        letters: list[Letter] = []
        for token in text.split():
            name, _, power = token.partition("^")
            exp = int(power) if power else 1
            if exp == 0 or not name:
                raise ValueError(f"bad word token {token!r}")
            letters.extend([(name, 1 if exp > 0 else -1)] * abs(exp))
        return Word.make(letters)
    return parse_word(text)

"""Workload definitions: the ops each workload sends, made from a seed.

Every workload is a closed loop with one client: the next op starts
when the previous one returns.  Ops come in rounds of fixed composition,
and a run measures whole rounds only, so the mix of op kinds in a run
does not depend on how fast the program is.  The seed decides which
codes are drawn and the order of the ops; the program only receives the
generated argv.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass
from typing import Callable, Iterator

import oracle

CYCLIC_CODE = "14FF28"  # the only code with default meridians on record
# Size -> ops per round.  Small, middle and large ops come 1 : 3 : 1, so
# the nearest-rank p10, p50 and p90 of a round are its small op, its
# median middle op and its large op.
CYCLIC_FILL_NS = {3: 1, 5: 3, 7: 1}
CYCLIC_COVER_NS = {13: 1, 25: 3, 51: 1}
CENSUS_FILE_SIZES = {2: 1, 3: 3, 6: 1}  # manifold codes per census file
CENSUS_JOBS = 2
CENSUS_COST_BAND = (0.3, 0.7)  # census codes: this quantile band of recorded cost
SCREEN_STRATA = 6  # manifold codes per screen round, one per cost stratum


@dataclass(frozen=True)
class Op:
    argv: tuple[str, ...]
    kind: str  # reference class (screen), "census", or the cyclic parameter n
    codes: tuple[str, ...]  # codes the op verifies; empty for cover ops
    check: Callable[[int | None, dict | None], str | None]

    @property
    def items(self) -> int:
        """Units of work for ops_per_s: codes for verify and census, else 1."""
        return len(self.codes) or 1


@dataclass(frozen=True)
class Workload:
    name: str
    summary: str
    rounds: Callable[[random.Random], Iterator[list[Op]]]
    min_rounds: int  # whole rounds every timed run measures


def cover_argv(n: int, classify_filling: bool) -> list[str]:
    argv = ["cover", CYCLIC_CODE, "--cyclic", str(n)]
    return argv + ["--classify-filling"] if classify_filling else argv


def _cycling(items: list, rng: random.Random) -> Iterator:
    """Endless draws without replacement: a fresh shuffle per pass."""
    while True:
        order = list(items)
        rng.shuffle(order)
        yield from order


def _by_cost(codes: list[str], cost: dict[str, int]) -> list[str]:
    return sorted(codes, key=lambda c: (cost[c], c))


def _screen(pool, cost, manifolds) -> Callable[[random.Random], Iterator[list[Op]]]:
    # A round holds one manifold code from each of SCREEN_STRATA cost
    # strata, so its cost mix is the same from seed to seed, and the other
    # classes in their share of the recorded uniform search (73%
    # undecodable, 26% rejected, 1.2% manifold).
    n_manifold = len(pool["manifold"])
    quota = {
        k: round(SCREEN_STRATA * len(pool[k]) / n_manifold) for k in ("undecodable", "rejected")
    }
    ranked = _by_cost(pool["manifold"], cost)
    size = -(-len(ranked) // SCREEN_STRATA)
    strata = [ranked[i : i + size] for i in range(0, len(ranked), size)]

    def rounds(rng: random.Random) -> Iterator[list[Op]]:
        streams = {k: _cycling(pool[k], rng) for k in quota}
        manifold_streams = [_cycling(stratum, rng) for stratum in strata]
        while True:
            ops = [_verify_op(next(s), "manifold", manifolds) for s in manifold_streams]
            for klass, count in quota.items():
                ops.extend(_verify_op(next(streams[klass]), klass, manifolds) for _ in range(count))
            rng.shuffle(ops)
            yield ops

    return rounds


def _verify_op(code: str, klass: str, manifolds: dict) -> Op:
    expected = manifolds.get(code)
    return Op(
        ("verify", code),
        klass,
        (code,),
        lambda rc, doc: oracle.check_verify(klass, expected, rc, doc),
    )


def _census(pool, cost, manifolds, workdir: str) -> Callable[[random.Random], Iterator[list[Op]]]:
    # Codes of typical cost only, so that a file's cost follows its size
    # and not the luck of the draw.
    ranked = _by_cost(pool["manifold"], cost)
    low, high = (round(q * len(ranked)) for q in CENSUS_COST_BAND)
    band = ranked[low:high]

    def rounds(rng: random.Random) -> Iterator[list[Op]]:
        stream = _cycling(band, rng)
        tag = rng.getrandbits(32)
        index = 0
        while True:
            sizes = [k for k, count in CENSUS_FILE_SIZES.items() for _ in range(count)]
            rng.shuffle(sizes)
            ops = []
            for size in sizes:
                codes = [next(stream) for _ in range(size)]
                path = os.path.join(workdir, f"census-{tag:08x}-{index}.txt")
                with open(path, "w", encoding="utf-8") as handle:
                    handle.write("".join(f"{c}\n" for c in codes))
                index += 1
                ops.append(
                    Op(
                        ("census", path, "--jobs", str(CENSUS_JOBS)),
                        "census",
                        tuple(codes),
                        lambda rc, doc, codes=codes: oracle.check_census(codes, manifolds, rc, doc),
                    )
                )
            yield ops

    return rounds


def _cyclic(ns: dict[int, int], classify_filling: bool, references: dict):
    def rounds(rng: random.Random) -> Iterator[list[Op]]:
        while True:
            order = [n for n, count in ns.items() for _ in range(count)]
            rng.shuffle(order)
            ops = []
            for n in order:
                argv = cover_argv(n, classify_filling)
                expected = references[" ".join(argv)]
                ops.append(
                    Op(
                        tuple(argv),
                        str(n),
                        (),
                        lambda rc, doc, expected=expected: oracle.check_cover(expected, rc, doc),
                    )
                )
            yield ops

    return rounds


def build(workdir: str) -> dict[str, Workload]:
    """Every workload, reading the committed reference data."""
    pool, cost = oracle.load_pool()
    manifolds = oracle.load_json(oracle.MANIFOLDS_FILE)
    cyclic = oracle.load_json(oracle.CYCLIC_FILE)
    return {
        w.name: w
        for w in (
            Workload(
                "screen",
                "verify on codes from a uniform search of all 15^6 strings",
                _screen(pool, cost, manifolds),
                3,
            ),
            Workload(
                "census",
                f"census files of {tuple(CENSUS_FILE_SIZES)} manifold codes with --jobs {CENSUS_JOBS}",
                _census(pool, cost, manifolds, workdir),
                2,
            ),
            Workload(
                "cyclic-fill",
                f"cover {CYCLIC_CODE} --cyclic n --classify-filling, n in {tuple(CYCLIC_FILL_NS)}",
                _cyclic(CYCLIC_FILL_NS, True, cyclic),
                2,
            ),
            Workload(
                "cyclic-cover",
                f"cover {CYCLIC_CODE} --cyclic n, n in {tuple(CYCLIC_COVER_NS)}",
                _cyclic(CYCLIC_COVER_NS, False, cyclic),
                3,
            ),
        )
    }

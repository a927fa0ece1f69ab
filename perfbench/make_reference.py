"""Regenerate the benchmark's reference answers from the program at hand.

    python3 perfbench/make_reference.py [--jobs 2]

Run from the repository root.  It draws SEARCH_DRAWS codes uniformly
from all 15^6 six-character strings with SEARCH_SEED, classifies each
with ``hyper4 verify`` (undecodable, rejected, manifold), keeps the
reference invariants of every manifold code, and records the reference
fields of the fixed cyclic-cover inputs.  The output under
``perfbench/data`` is committed; a run of the benchmark only reads it.
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import os
import random
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import oracle  # noqa: E402
import program  # noqa: E402
from workloads import CYCLIC_CODE, CYCLIC_COVER_NS, CYCLIC_FILL_NS, cover_argv  # noqa: E402

ALPHABET = "123456789ABCDEF"
SEARCH_SEED = 1504
SEARCH_DRAWS = 15000
COST_REPEATS = 3


def search_codes() -> list[str]:
    """The recorded draw: uniform over 15^6 strings, first occurrence kept."""
    rng = random.Random(SEARCH_SEED)
    codes = ("".join(rng.choice(ALPHABET) for _ in range(6)) for _ in range(SEARCH_DRAWS))
    return list(dict.fromkeys(codes))


def classify(code: str) -> tuple[str, str, dict | None, int | None]:
    """(code, class, reference fields, cost in ms) of one verify run.

    The cost of a manifold code is the least of COST_REPEATS timings; it
    only orders codes into cost strata and is never compared.
    """
    cli = program.import_cli()
    from hyper4.pairing import CodeError, build_side_pairings

    start = time.perf_counter()
    rc, out, crash = program.call(cli, ["verify", code])
    cost = time.perf_counter() - start
    try:
        build_side_pairings(code)
    except CodeError:
        return code, "undecodable", None, None
    if crash is not None:
        # A decodable code whose verify raises is still no manifold; the
        # benchmark counts the escaped exception as a failed op.
        print(f"verify {code} raised {crash}", file=sys.stderr)
        return code, "rejected", None, None
    if rc != 0:
        return code, "rejected", None, None
    for _ in range(COST_REPEATS - 1):
        start = time.perf_counter()
        program.call(cli, ["verify", code])
        cost = min(cost, time.perf_counter() - start)
    record = program.envelope(out)["records"][0]
    return code, "manifold", oracle.manifold_fields(record), round(cost * 1000)


def _warm_up() -> None:
    """Pool initializer: pay first-use set-up before any code is timed."""
    program.call(program.import_cli(), ["verify", CYCLIC_CODE])


def cyclic_reference() -> dict:
    cli = program.import_cli()
    out = {}
    for fill, ns in ((True, CYCLIC_FILL_NS), (False, CYCLIC_COVER_NS)):
        for n in ns:
            argv = cover_argv(n, fill)
            rc, text, crash = program.call(cli, argv)
            if crash is not None or rc != 0:
                raise SystemExit(f"{' '.join(argv)} failed: rc={rc} crash={crash}")
            record = program.envelope(text)["records"][0]
            out[" ".join(argv)] = oracle.cover_fields(record)
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--jobs", type=int, default=2)
    parser.add_argument(
        "--cyclic-only",
        action="store_true",
        help="rewrite only cyclic.json; the pool's costs are timings, and "
        "re-timing them would move codes between cost strata",
    )
    args = parser.parse_args()
    program.import_cli()
    if args.cyclic_only:
        write_cyclic()
        return 0
    codes = search_codes()
    ctx = multiprocessing.get_context("spawn")
    with ctx.Pool(args.jobs, initializer=_warm_up) as pool:
        results = pool.map(classify, codes, chunksize=64)
    os.makedirs(oracle.DATA, exist_ok=True)
    counts = {k: sum(1 for _, c, _, _ in results if c == k) for k in oracle.CLASSES}
    with open(oracle.POOL_FILE, "w", encoding="utf-8") as handle:
        handle.write(
            f"# hyper4 verify outcome of {len(codes)} distinct codes from "
            f"{SEARCH_DRAWS} uniform draws over 15^6, random.Random({SEARCH_SEED})\n"
            f"# counts: {json.dumps(counts)}\n"
            f"# columns: code, class (U undecodable, R rejected, M manifold), "
            f"least verify time in ms of a manifold code over {COST_REPEATS} runs\n"
        )
        for code, klass, _, cost in results:
            tag = oracle.CLASS_TAGS[klass]
            handle.write(f"{code} {tag} {cost}\n" if cost is not None else f"{code} {tag}\n")
    manifolds = {code: fields for code, klass, fields, _ in results if klass == "manifold"}
    with open(oracle.MANIFOLDS_FILE, "w", encoding="utf-8") as handle:
        json.dump(manifolds, handle, indent=0, sort_keys=True)
        handle.write("\n")
    write_cyclic()
    print(json.dumps(counts))
    return 0


def write_cyclic() -> None:
    with open(oracle.CYCLIC_FILE, "w", encoding="utf-8") as handle:
        json.dump(cyclic_reference(), handle, indent=1, sort_keys=True)
        handle.write("\n")


if __name__ == "__main__":
    sys.exit(main())

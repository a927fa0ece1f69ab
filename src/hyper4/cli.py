"""Command line interface.

Every verb emits one JSON envelope on stdout (schema hyper4-census/1)
with the normalized command, a determinism note, a list of records, and
a list of errors.  All numbers are integers or exact rational strings;
the exit status is 0 exactly when no hard validation failure occurred.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import threading
from dataclasses import asdict

from . import __version__
from .analysis import CodeAnalysis
from .cell24 import the_24_cell
from .cusp import ETA_TABLE, signature
from .filling import (
    classify_filled_cover,
    classify_homeo,
    conditional_verdicts,
    cyclic_cover,
    default_meridians,
    double_cover_record,
    fill,
    parse_meridian_lines,
)
from .flatgroups import StructuralError, reference_flat_groups
from .grouppres import DEFAULT_COSET_LIMIT, abelianization, todd_coxeter
from .pairing import CodeError, build_side_pairings, parse_census_lines

SCHEMA = "hyper4-census/1"
DETERMINISM_NOTE = (
    "exact integer and rational arithmetic; no floating point and no "
    "randomness; records are independent of --jobs"
)
TORSION_NOTE = (
    "the side-pairing group is torsion-free by Poincare's polyhedron theorem "
    "(Ratcliffe, Foundations of Hyperbolic Manifolds, section 11.2): its ridge "
    "cycles are the identity and have length 4, its edge stabilizers are "
    "trivial, and its cusp groups are Bieberbach"
)
ORIENTABLE_NOTE = (
    "the code is orientable, so it is its own orientation cover: "
    "there is no orientation double cover to report"
)


def _envelope(command, records, errors) -> dict:
    return {
        "schema": SCHEMA,
        "tool": {"name": "hyper4", "version": __version__},
        "command": command,
        "determinism": DETERMINISM_NOTE,
        "records": records,
        "errors": errors,
    }


def _normalized_command(tokens) -> list[str]:
    """The argv with census's `--jobs`, which changes no record, left out."""
    if tokens[:1] != ["census"]:
        return tokens
    out = []
    skip = False
    for tok in tokens:
        if skip:
            skip = False
            continue
        if tok == "--jobs":
            skip = True
            continue
        if tok.startswith("--jobs="):
            continue
        out.append(tok)
    return out


def _orientation(signs: dict[str, int]) -> dict:
    return {
        "preserving": [letter for letter, s in signs.items() if s == 1],
        "reversing": [letter for letter, s in signs.items() if s == -1],
    }


def _decode_record(code: str) -> dict:
    pairing_set = build_side_pairings(code)
    signs = {p.letter: p.sign for p in pairing_set.pairings}
    arrows = [
        {
            "letter": p.letter,
            "source": p.source.label,
            "source_center": list(p.source.center),
            "target": p.target.label,
            "target_center": list(p.target.center),
            "k": list(p.kpart),
            "matrix": [list(row) for row in p.matrix.rows],
        }
        for p in pairing_set.pairings
    ]
    return {"code": code, "arrows": arrows, "orientation": _orientation(signs)}


def _decode_text(record: dict) -> str:
    lines = [f"code {record['code']}"]
    for a in record["arrows"]:
        src = ",".join(f"{c:+d}" if c else "0" for c in a["source_center"])
        dst = ",".join(f"{c:+d}" if c else "0" for c in a["target_center"])
        k = ",".join(f"{c:+d}" for c in a["k"])
        lines.append(
            f"{a['letter']}: {a['source']}({src}) -> {a['target']}({dst})  k=({k})"
        )
    return "\n".join(lines)


def _cusp_fields(analysis: CodeAnalysis) -> dict:
    """The per-cusp summaries, cusp types and signature of a code."""
    cusps = [
        {
            "index": vclass.index,
            "size": vclass.size,
            "representative": list(vclass.representative.coords),
            "flat_type": tag,
            "holonomy": {
                "order": group.holonomy_order,
                "type": group.holonomy_type,
                "orientation_preserving": group.orientable,
            },
            "stabilizer_words": [str(w) for w, _ in vclass.stabilizer],
            "eta": str(ETA_TABLE[tag]) if tag in ETA_TABLE else None,
        }
        for vclass, (group, tag) in zip(analysis.classes, analysis.cusps)
    ]
    types = "".join(c["flat_type"] for c in cusps)
    return {
        "cusps": cusps,
        "cusp_types": types,
        "signature": signature(types),
    }


def _verify_record(code: str, double_cover: bool = False) -> dict:
    analysis = CodeAnalysis(code)
    ridge = analysis.ridge_cycles
    orientation = _orientation(analysis.signs)
    record = {
        "code": code,
        "orientable": not orientation["reversing"],
        "orientation": orientation,
        "side_classes": len(analysis.pairing_set.pairings),
        "ridge_classes": len(ridge),
        "edge_classes": len(analysis.edge_orbits),
        "ridge_cycles": {
            "count": len(ridge),
            "lengths": sorted({c.length for c in ridge}),
        },
        "chi": analysis.chi,
        "h1": str(abelianization(analysis.presentation)),
        **_cusp_fields(analysis),
        "notes": [TORSION_NOTE],
    }
    if double_cover and record["orientable"]:
        record["double_cover"] = None
        record["notes"].append(ORIENTABLE_NOTE)
    elif double_cover:
        record["double_cover"] = asdict(double_cover_record(analysis))
    return record


def _cmd_decode(args) -> tuple[list, list, str | None]:
    record = _decode_record(args.code)
    text = _decode_text(record) if args.format == "text" else None
    return [record], [], text


def _cmd_verify(args) -> tuple[list, list, None]:
    return [_verify_record(args.code, double_cover=args.double_cover)], [], None


def _cmd_cusps(args) -> tuple[list, list, None]:
    cusp_fields = _cusp_fields(CodeAnalysis(args.code))
    record = {
        "code": args.code,
        "cusp_count": len(cusp_fields["cusps"]),
        **cusp_fields,
        "notes": [TORSION_NOTE],
    }
    return [record], [], None


def _plain_verdicts(verdicts: dict) -> dict:
    return {k: v if isinstance(v, str) else asdict(v) for k, v in verdicts.items()}


def _cmd_cover(args) -> tuple[list, list, None]:
    if not args.classify_filling:
        return [asdict(cyclic_cover(args.code, args.cyclic, limit=args.max_cosets))], [], None
    result = classify_filled_cover(args.code, args.cyclic, limit=args.max_cosets)
    record = asdict(result["cover"])
    filling = {k: v for k, v in result.items() if k != "cover"}
    if "verdict" in filling:
        filling["verdict"] = asdict(filling["verdict"])
    if "verdicts" in filling:
        filling["verdicts"] = _plain_verdicts(filling["verdicts"])
    record["filling"] = filling
    return [record], [], None


def _cmd_fill(args) -> tuple[list, list, None]:
    analysis = CodeAnalysis(args.code)
    if args.meridians == "default":
        meridians = default_meridians(args.code)
    else:
        with open(args.meridians, encoding="utf-8") as handle:
            meridians = parse_meridian_lines(handle)
    filled = fill(analysis, meridians, args.max_cosets)
    table = todd_coxeter(filled, args.max_cosets)
    record = {
        "code": args.code,
        "meridians": [
            {"cusp": m.cusp_index, "word": str(m.word), "exponent": m.exponent}
            for m in meridians
        ],
        "chi": analysis.chi,
        "order": table.index if table.complete else "unknown",
        "h1": str(abelianization(filled)),
    }
    return [record], [], None


def _cmd_classify(args) -> tuple[list, list, None]:
    chi, sigma, spin_status = args.chi, args.sigma, None
    if args.record is not None:
        with open(args.record, encoding="utf-8") as handle:
            try:
                data = json.load(handle)
            except RecursionError:
                raise ValueError("record file: JSON nested too deeply") from None
        if isinstance(data, dict) and "records" in data:
            records = data["records"]
            data = records[0] if isinstance(records, list) and records else None
        if not isinstance(data, dict):
            raise ValueError("record file: expected a JSON object or a nonempty 'records' list")
        for field, given in (("chi", chi), ("sigma", sigma)):
            if given is None and type(data.get(field)) is not int:
                raise ValueError(f"record file: {field!r} must be an integer")
        chi = data["chi"] if chi is None else chi
        sigma = data["sigma"] if sigma is None else sigma
        spin_status = data.get("spin_status")
        if spin_status not in (None, "spin", "nonspin", "unknown"):
            raise ValueError("record file: 'spin_status' must be spin, nonspin or unknown")
    if args.spin:
        spin_status = "spin"
    elif args.nonspin:
        spin_status = "nonspin"
    elif args.spin_unknown:
        spin_status = "unknown"
    if chi is None or sigma is None or spin_status is None:
        raise ValueError("classify needs chi, sigma, and a spin status")
    record: dict = {
        "chi": chi,
        "sigma": sigma,
        "spin_status": spin_status,
        "assumes": "simply connected",
    }
    errors = []
    if spin_status in ("spin", "nonspin"):
        try:
            result = classify_homeo(chi, sigma, spin_status == "spin", True)
            record["verdict"] = asdict(result)
        except ValueError as exc:
            errors.append({"message": str(exc)})
    else:
        record["verdicts"] = _plain_verdicts(conditional_verdicts(chi, sigma))
    return [record], errors, None


def _census_line(lineno: int, code: str, annotation: str | None):
    try:
        record = _verify_record(code)
    except (CodeError, ValueError, StructuralError) as exc:
        return None, {"line": lineno, "code": code, "message": str(exc)}
    record["line"] = lineno
    if annotation:
        record["annotation"] = annotation
    return record, None


def _census_share(share):
    """The (record, error) of each entry of `share`, in order, up to the
    first exception that escapes `_census_line`, and that exception."""
    results = []
    try:
        for entry in share:
            results.append(_census_line(*entry))
    except Exception as exc:  # re-raised when the merge reaches this entry
        return results, exc
    return results, None


def _collect(pid: int, read: int):
    """A worker's pickled outcome, read to the end, with the worker
    reaped; one that did not report gives an error naming its wait
    status."""
    import pickle

    try:
        with os.fdopen(read, "rb") as pipe:
            data = pipe.read()
    finally:
        _, status = os.waitpid(pid, 0)
    if status or not data:
        return [], ChildProcessError(f"a census worker ended without reporting: wait status {status}")
    return pickle.loads(data)


def _forked_shares(entries, jobs: int) -> list:
    """The outcome of each share `entries[i::jobs]`: share 0 runs in
    this process and each other share in a forked child, which is
    reaped before this returns or raises."""
    # imported here: only a forked census needs them, and every verb
    # would pay their import time at the top of the module
    import pickle
    import signal

    # process-wide tables, built once here rather than in every child
    the_24_cell()
    reference_flat_groups()
    workers = []  # (pid, read end) of each child not yet collected
    try:
        for share in range(1, jobs):
            read, write = os.pipe()
            try:
                pid = os.fork()
            except OSError:
                os.close(read)
                os.close(write)
                raise
            if pid == 0:
                # the child pickles its outcome into the pipe and leaves
                # by os._exit: it never returns into the caller's stack,
                # runs no atexit handler and flushes no inherited stdout
                status = 1
                try:
                    with os.fdopen(write, "wb") as pipe:
                        pickle.dump(_census_share(entries[share::jobs]), pipe)
                    status = 0
                finally:
                    os._exit(status)
            os.close(write)
            workers.append((pid, read))
        outcomes = [_census_share(entries[::jobs])]
        while workers:
            outcomes.append(_collect(*workers.pop(0)))
        return outcomes
    finally:
        # left only by a failed fork or an interrupt: the outcome is
        # lost, so the children are stopped rather than waited for
        for pid, read in workers:
            os.close(read)
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)


def _cmd_census(args) -> tuple[list, list, None]:
    if args.jobs < 1:
        raise ValueError("--jobs must be a positive integer")
    with open(args.path, encoding="utf-8") as handle:
        entries = parse_census_lines(handle)
    # The codes are independent, so up to --jobs processes, and no more
    # than the codes or the cores, each verify every jobs-th entry.  A
    # process with threads never forks: another thread may hold a lock.
    jobs = min(args.jobs, len(entries), os.cpu_count() or 1)
    if jobs > 1 and hasattr(os, "fork") and threading.active_count() == 1:
        shares = _forked_shares(entries, jobs)
    else:
        jobs, shares = 1, [_census_share(entries)]
    records = []
    errors = []
    # merged in file order: the first exception in file order is raised,
    # as the in-process loop raises it
    for index in range(len(entries)):
        results, exc = shares[index % jobs]
        if index // jobs == len(results):
            raise exc
        record, error = results[index // jobs]
        if record is not None:
            records.append(record)
        if error is not None:
            errors.append(error)
    return records, errors, None


class _Parser(argparse.ArgumentParser):
    """Bad argv raises, for `main` to report, where argparse exits 2;
    the verb subparsers are built from the same class.  An option must
    be spelled out in full, so the normalized command drops `--jobs`
    however it was given."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, allow_abbrev=False, **kwargs)

    def error(self, message):
        raise ValueError(f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="hyper4",
        description="exact side-pairing codes on the hyperbolic 24-cell",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("decode", help="expand a code into its twelve pairings")
    p.add_argument("code")
    p.add_argument("--format", choices=("json", "text"), default="json")
    p.set_defaults(func=_cmd_decode)

    p = sub.add_parser("verify", help="run all structural checks on a code")
    p.add_argument("code")
    p.add_argument("--double-cover", action="store_true")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("cusps", help="cusp classes, flat types, and eta")
    p.add_argument("code")
    p.set_defaults(func=_cmd_cusps)

    p = sub.add_parser("cover", help="invariants of a cyclic cover")
    p.add_argument("code")
    p.add_argument("--cyclic", type=int, required=True, metavar="N")
    p.add_argument("--classify-filling", action="store_true")
    p.add_argument("--max-cosets", type=int, default=DEFAULT_COSET_LIMIT)
    p.set_defaults(func=_cmd_cover)

    p = sub.add_parser("fill", help="kill meridian words in the fundamental group")
    p.add_argument("code")
    p.add_argument("--meridians", required=True, metavar="default|FILE")
    p.add_argument("--max-cosets", type=int, default=DEFAULT_COSET_LIMIT)
    p.set_defaults(func=_cmd_fill)

    p = sub.add_parser("classify", help="homeomorphism type from invariants")
    p.add_argument("--chi", type=int)
    p.add_argument("--sigma", type=int)
    group = p.add_mutually_exclusive_group()
    group.add_argument("--spin", action="store_true")
    group.add_argument("--nonspin", action="store_true")
    group.add_argument("--spin-unknown", action="store_true")
    p.add_argument("--record", metavar="FILE")
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("census", help="verify every code in a file")
    p.add_argument("path")
    p.add_argument("--jobs", type=int, default=1)
    p.set_defaults(func=_cmd_census)

    return parser


def main(argv=None) -> int:
    tokens = list(sys.argv[1:] if argv is None else argv)
    command = _normalized_command(tokens)
    try:
        args = build_parser().parse_args(tokens)
        records, errors, text = args.func(args)
    except (CodeError, ValueError, OSError, StructuralError) as exc:
        records, errors, text = [], [{"message": str(exc)}], None
    envelope = _envelope(command, records, errors)
    try:
        print(text if text is not None else json.dumps(envelope, indent=2))
    except BrokenPipeError:
        # the reader closed the pipe (`| head`): send the rest, and the
        # interpreter's flush at exit, to the null device instead
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())

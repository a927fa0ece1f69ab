"""Spans around the public functions of each hyper4 layer.

The tracer wraps functions from the outside: every ``hyper4.*`` module
that binds a traced function (``from .x import f`` makes a second
binding) gets the wrapper, and the listed methods are replaced on their
class.  Nothing under ``src/`` changes.  Spans are kept in memory as
(name, start, end, parent, op, extra) and written out when the run ends.
Hot inner methods such as ``transition`` and ``LorentzMatrix.__matmul__``
are not wrapped; matrix products are counted from the length of the
words handed to ``SidePairingSet.evaluate`` instead.
"""

from __future__ import annotations

import functools
import json
import sys
import threading
import time
from collections import defaultdict


def _len_of_arg(index):
    return lambda args, result: len(args[index])


def _todd_coxeter_extra(args, result):
    return len(result.rows) if result.complete else -1


def _presentation_out(args, result):
    return (len(result.generators), len(result.relators))


def _tietze_extra(args, result):
    return (len(args[0].generators), len(result.generators), len(result.relators))


# (module, attribute, span name, extra(args, result) or None)
TARGETS = (
    ("hyper4.cli", "main", "cli.main", None),
    ("hyper4.pairing", "build_side_pairings", "pairing.build_side_pairings", None),
    ("hyper4.pairing", "validate_pairings", "pairing.validate_pairings", None),
    ("hyper4.pairing", "face_cycles", "pairing.face_cycles", None),
    ("hyper4.pairing", "fundamental_group", "pairing.fundamental_group", None),
    ("hyper4.pairing", "SidePairingSet.evaluate", "pairing.SidePairingSet.evaluate", _len_of_arg(1)),
    ("hyper4.cusp", "vertex_classes", "cusp.vertex_classes", None),
    ("hyper4.cusp", "horospherical_action", "cusp.horospherical_action", None),
    ("hyper4.flatgroups", "FlatGroup.__init__", "flatgroups.FlatGroup", None),
    ("hyper4.grouppres", "todd_coxeter", "grouppres.todd_coxeter", _todd_coxeter_extra),
    ("hyper4.grouppres", "reidemeister_schreier", "grouppres.reidemeister_schreier", _presentation_out),
    ("hyper4.grouppres", "tietze_simplify", "grouppres.tietze_simplify", _tietze_extra),
    ("hyper4.grouppres", "abelianization", "grouppres.abelianization", None),
    ("hyper4.intmat", "smith_normal_form", "intmat.smith_normal_form", None),
    ("hyper4.filling", "cyclic_cover", "filling.cyclic_cover", None),
    ("hyper4.filling", "classify_filled_cover", "filling.classify_filled_cover", None),
    ("hyper4.filling", "cover_record_from_table", "filling.cover_record_from_table", None),
)

NAME, START, END, PARENT, OP, EXTRA = range(6)


class Tracer:
    """Records spans while installed; ``op`` tags every span with the op id."""

    def __init__(self):
        self.spans: list[list] = []
        self.op = None
        self.op_root = None  # the cli.main span of the op in flight
        self.missing: list[str] = []
        self._local = threading.local()
        self._bindings: list[tuple[object, str, object, object]] | None = None

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, name, fn, extra):
        spans = self.spans
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            parent = stack[-1] if stack else self.op_root
            span = [name, clock(), None, parent, self.op, None]
            sid = len(spans)
            spans.append(span)
            if name == "cli.main" and not stack:
                self.op_root = sid
            stack.append(sid)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = clock()
                stack.pop()
            if extra is not None:
                span[EXTRA] = extra(args, result)
            return result

        return traced

    def install(self) -> None:
        """Wrap every target in every hyper4 namespace that binds it."""
        if self._bindings is None:
            self._bindings = self._find_bindings()
        for owner, key, _, wrapped in self._bindings:
            setattr(owner, key, wrapped)

    def uninstall(self) -> None:
        for owner, key, original, _ in reversed(self._bindings or ()):
            setattr(owner, key, original)

    def _find_bindings(self) -> list[tuple[object, str, object, object]]:
        modules = [m for n, m in list(sys.modules.items()) if n.split(".")[0] == "hyper4" and m]
        bindings = []
        for module_name, attr, name, extra in TARGETS:
            module = sys.modules.get(module_name)
            owner_name, _, leaf = attr.rpartition(".")
            owner = getattr(module, owner_name, None) if owner_name else module
            original = getattr(owner, leaf, None) if owner is not None else None
            if original is None:
                self.missing.append(f"{module_name}.{attr}")
                continue
            wrapped = self._wrap(name, original, extra)
            if owner_name:
                bindings.append((owner, leaf, original, wrapped))
                continue
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        bindings.append((mod, key, original, wrapped))
        return bindings

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for sid, span in enumerate(self.spans):
                handle.write(
                    json.dumps(
                        {
                            "id": sid,
                            "name": span[NAME],
                            "start": span[START],
                            "end": span[END],
                            "parent": span[PARENT],
                            "op": span[OP],
                            "extra": span[EXTRA],
                        }
                    )
                    + "\n"
                )


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the part of it its child spans cover."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for span in spans:
        if span[PARENT] is not None:
            children[span[PARENT]].append((span[START], span[END]))
    out = []
    for sid, span in enumerate(spans):
        start, end = span[START], span[END]
        covered = 0.0
        cursor = start
        for s, e in sorted(children.get(sid, ())):
            s, e = max(s, cursor), min(e, end)
            if e > s:
                covered += e - s
                cursor = e
        out.append(end - start - covered)
    return out


# Counts read from the code at the commit that defined the benchmark, and
# the workloads where they apply.  The measured value is always the one
# reported; a difference is printed next to it.
COUNTS_READ_FROM_CODE = {
    "pairing.face_cycles.calls_per_verify": (5, ("screen", "census")),
    "flatgroups.FlatGroup.builds_per_cusp": (2, ("screen", "census")),
    "grouppres.todd_coxeter.calls_per_op": (3, ("cyclic-fill",)),
    "filling.cover_record_from_table.calls_per_op": (2, ("cyclic-fill",)),
}

CALLS_AND_SELF = (
    "pairing.build_side_pairings",
    "pairing.validate_pairings",
    "pairing.face_cycles",
    "pairing.fundamental_group",
    "cusp.vertex_classes",
    "cusp.horospherical_action",
    "pairing.SidePairingSet.evaluate",
    "grouppres.todd_coxeter",
    "intmat.smith_normal_form",
    "filling.cyclic_cover",
    "filling.classify_filled_cover",
    "filling.cover_record_from_table",
)
SELF_ONLY = (
    "cli.main",
    "grouppres.reidemeister_schreier",
    "grouppres.tietze_simplify",
    "grouppres.abelianization",
)


def layer_metrics(spans: list[list], ops: list, cusps_of: dict[str, int]) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of the spans of one traced pass over ``ops``.

    ``ops[i]`` is the op whose spans carry op id i; ``cusps_of`` maps a
    manifold code to its reference cusp count.
    """
    selfs = self_times(spans)
    calls: dict[str, int] = defaultdict(int)
    self_s: dict[str, float] = defaultdict(float)
    extras: dict[str, list] = defaultdict(list)
    per_op: dict[tuple[str, int], int] = defaultdict(int)
    for span, own in zip(spans, selfs):
        name = span[NAME]
        calls[name] += 1
        self_s[name] += own
        if span[EXTRA] is not None:
            extras[name].append(span[EXTRA])
        per_op[name, span[OP]] += 1

    out: dict[str, tuple[float, str]] = {}
    for name in CALLS_AND_SELF:
        out[f"{name}.calls"] = (calls[name], "count")
        out[f"{name}.self_s"] = (self_s[name], "s")
    for name in SELF_ONLY:
        out[f"{name}.self_s"] = (self_s[name], "s")

    # Ops that verify manifold codes: screen's manifold draws, census files.
    verified = [i for i, op in enumerate(ops) if op.kind in ("manifold", "census")]
    codes = sum(len(ops[i].codes) for i in verified)
    cusps = sum(cusps_of[c] for i in verified for c in ops[i].codes)
    face = sum(per_op["pairing.face_cycles", i] for i in verified)
    builds = sum(per_op["flatgroups.FlatGroup", i] for i in verified)
    out["pairing.face_cycles.calls_per_verify"] = (face / codes if codes else 0.0, "ratio")
    out["flatgroups.FlatGroup.builds"] = (calls["flatgroups.FlatGroup"], "count")
    out["flatgroups.FlatGroup.self_s"] = (self_s["flatgroups.FlatGroup"], "s")
    out["flatgroups.FlatGroup.builds_per_cusp"] = (builds / cusps if cusps else 0.0, "ratio")
    for klass in ("undecodable", "rejected", "manifold"):
        out[f"screen.outcome.{klass}"] = (sum(1 for op in ops if op.kind == klass), "count")

    letters = extras["pairing.SidePairingSet.evaluate"]
    out["lorentz.matrix_products"] = (sum(letters), "count")

    tc = extras["grouppres.todd_coxeter"]
    out["grouppres.todd_coxeter.cosets"] = (sum(x for x in tc if x >= 0), "count")
    out["grouppres.todd_coxeter.incomplete"] = (sum(1 for x in tc if x < 0), "count")
    n_ops = len(ops)
    out["grouppres.todd_coxeter.calls_per_op"] = (calls["grouppres.todd_coxeter"] / n_ops, "ratio")
    rs = extras["grouppres.reidemeister_schreier"]
    out["grouppres.reidemeister_schreier.generators_out"] = (sum(g for g, _ in rs), "count")
    out["grouppres.reidemeister_schreier.relators_out"] = (sum(r for _, r in rs), "count")
    tz = extras["grouppres.tietze_simplify"]
    out["grouppres.tietze_simplify.generators_in"] = (sum(t[0] for t in tz), "count")
    out["grouppres.tietze_simplify.generators_out"] = (sum(t[1] for t in tz), "count")
    out["grouppres.tietze_simplify.relators_out"] = (sum(t[2] for t in tz), "count")
    out["grouppres.abelianization.calls"] = (calls["grouppres.abelianization"], "count")
    out["filling.cover_record_from_table.calls_per_op"] = (
        calls["filling.cover_record_from_table"] / n_ops,
        "ratio",
    )
    return out

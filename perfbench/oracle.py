"""Reference answers and the comparison of an op's output against them.

Only mathematical fields are compared: never message text, key order or
byte digests, so changes to the envelope's wording or layout do not read
as failures.
"""

from __future__ import annotations

import json
import os

DATA = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data")
POOL_FILE = os.path.join(DATA, "pool.tsv")
MANIFOLDS_FILE = os.path.join(DATA, "manifolds.json")
CYCLIC_FILE = os.path.join(DATA, "cyclic.json")

CLASSES = ("undecodable", "rejected", "manifold")
CLASS_TAGS = {"undecodable": "U", "rejected": "R", "manifold": "M"}
MANIFOLD_FIELDS = ("chi", "h1", "cusp_types", "orientable", "signature")
COVER_FIELDS = ("degree", "chi", "cusp_types", "sigma")


def load_pool() -> tuple[dict[str, list[str]], dict[str, int]]:
    """Codes of the recorded search grouped by reference class, and the
    recorded cost in ms of each manifold code."""
    names = {tag: klass for klass, tag in CLASS_TAGS.items()}
    by_class: dict[str, list[str]] = {c: [] for c in CLASSES}
    cost: dict[str, int] = {}
    with open(POOL_FILE, encoding="utf-8") as handle:
        for line in handle:
            if line.startswith("#") or not line.strip():
                continue
            code, tag, *rest = line.split()
            by_class[names[tag]].append(code)
            if rest:
                cost[code] = int(rest[0])
    return by_class, cost


def load_json(path: str) -> dict:
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def manifold_fields(record: dict) -> dict:
    return {k: record.get(k) for k in MANIFOLD_FIELDS}


def cover_fields(record: dict) -> dict:
    out = {k: record.get(k) for k in COVER_FIELDS}
    filling = record.get("filling")
    if filling is not None:
        out["status"] = filling.get("status")
        verdict = filling.get("verdict")
        out["verdict"] = verdict.get("verdict") if isinstance(verdict, dict) else None
    return out


def check_verify(expected_class: str, expected: dict | None, rc, doc) -> str | None:
    """None when a ``verify`` op matches its reference, else the reason."""
    if expected_class != "manifold":
        # Any verdict other than a clean manifold record is right here.
        if rc == 0:
            return f"{expected_class} code reported as a manifold"
        return None
    if rc != 0 or doc is None or len(doc.get("records") or []) != 1:
        return "manifold code not verified"
    got = manifold_fields(doc["records"][0])
    return None if got == expected else f"fields {got} != {expected}"


def check_census(codes: list[str], manifolds: dict, rc, doc) -> str | None:
    """None when a ``census`` op verified every listed manifold code."""
    if rc != 0 or doc is None:
        return "census run reported errors"
    records = doc.get("records") or []
    if [r.get("code") for r in records] != codes:
        return "census records do not follow the file's codes"
    for record in records:
        got = manifold_fields(record)
        if got != manifolds[record["code"]]:
            return f"{record['code']}: fields {got} != {manifolds[record['code']]}"
    return None


def check_cover(expected: dict, rc, doc) -> str | None:
    """None when a ``cover`` op matches its reference fields."""
    if rc != 0 or doc is None or len(doc.get("records") or []) != 1:
        return "cover record missing"
    got = cover_fields(doc["records"][0])
    return None if got == expected else f"fields {got} != {expected}"

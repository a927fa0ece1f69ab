"""Every function in hyper4 is reached by a CLI verb or kept on purpose.

A small fixed sweep of CLI calls runs in a fresh interpreter under
`sys.setprofile`, which records the code object of every Python function
entered.  Each function and method defined in `src/hyper4` must be among
them, matched by (file, first line), or be named in `LIBRARY_ONLY` with
the reason it is kept.  Code that no verb needs cannot creep back in
unnoticed, and an entry that a verb starts to reach must leave the list.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import hyper4

PACKAGE = Path(hyper4.__file__).resolve().parent
DATA = Path(__file__).parent / "data"

# qualified name (module.Class.function) -> why it is kept
LIBRARY_ONLY = {
    "pairing.fundamental_group": "presentation from a pairing set alone; a traced layer of the benchmark",
    "pairing.validate_pairings": "the group, normal and involution checks, which every decodable code passes, as the test over all 72 decode entries shows; a traced layer of the benchmark, whose smoke run fails on an absent target",
    "grouppres.parse_presentation": "reads the text form of a presentation; many group tests build inputs with it",
    "grouppres._parse_relator": "one relator line of parse_presentation",
    "grouppres.reidemeister_schreier": "the subgroup presentation of a complete table: acceptance criterion 5 abelianizes the double cover's, the benchmark tracer binds it by name, and the enumeration oracle of the filled-cover certificate builds on it",
    "grouppres.schreier_rewrite": "rewrites a word in Schreier generators: reidemeister_schreier's relators, and the lifted meridians of the filled-cover certificate's enumeration oracle",
    "grouppres.tietze_simplify": "the public Tietze pass (todd_coxeter runs the private one): acceptance criterion 5 calls it, the benchmark tracer binds it by name, and the filled-cover certificate's enumeration oracle simplifies with it",
    "words.Word.__len__": "word length for library users; the Tietze pass counts integer letters, and the Word-based Tietze oracles of the group tests read it",
    "words.Word.is_identity": "the identity test for library users; the Tietze pass tests integer words, and the Word-based Tietze oracles of the group tests read it",
    "words.Word.cyclic_reduce": "cyclic reduction for library users; the Tietze pass reduces integer words, and the Word-based Tietze oracles of the group tests read it",
    "filling.cover_record_from_table": "the record of a regular coset table: the oracle of the record that cover reads off the certified map onto D_n, on D_n's written or enumerated table, and of the orientation double cover; the benchmark tracer binds it by name",
    "filling._cusp_intersection_group": "a cusp class's orbit and lifted flat group over a coset table: cover_record_from_table's part of the oracle of the record read off the map",
    "filling._cusp_intersection_group.steps": "the Schreier walk's edges in _cusp_intersection_group",
    "filling._orientable": "a cover's orientability by signing the cosets of a table: cover_record_from_table's part of the oracle of the record read off the map",
    "grouppres.dihedral_table": "D_n's regular table, written in O(n): the tables of the cyclic cover's record oracle, and character_coset_table's",
    "grouppres.CosetTable.permutation": "a word's permutation of a complete table's cosets: cover_record_from_table, the oracle of the record read off the map, takes it for each cusp generator",
    "grouppres.dihedral_table.column": "one column of dihedral_table",
    "grouppres.character_coset_table": "the two-coset table of a Z/2 character, exported by the package: the oracle of the orientation double cover, which verify reads off the determinant as a map onto D_1",
    "grouppres.CosetTable.follow": "a word's trace from a coset, for library users: character_coset_table checks each relator with it, and the group tests read it",
    "grouppres.CosetTable.step": "one table entry by letter: follow and schreier_rewrite take it, and the orientation oracle of the cover tests reads it",
    "grouppres.CosetTable.column": "the column index of a letter: step and the orientation walk of cover_record_from_table, the oracle of the record read off the map, take it",
    "intmat.solve_integer": "one integer solution of a linear system by Smith form with both transforms: the torsion oracle of the flat-group reference in the group tests, which FlatGroup's Hermite membership test is checked against",
    "cusp.horospherical_action": "the action of a stabilizer matrix in a vertex's cube chart, read off the matrix and exported by the package: the oracle of the cube maps that the vertex walk and the peripheral check compose, and a traced layer of the benchmark, whose smoke run fails on an absent target",
    "flatgroups.AffineMap.identity": "the identity affine map for library users; the affine oracles of the cover record's helpers start from it",
    "flatgroups.AffineMap.__matmul__": "composition for library users of the affine maps that horospherical_action, cusp_flat_group and reference_flat_groups return; the cusp groups compose cube maps, and the affine oracles of the cover record's helpers compose with it",
    "flatgroups.AffineMap.inverse": "the inverse for library users of the affine maps that horospherical_action, cusp_flat_group and reference_flat_groups return; the cusp groups invert cube maps, and the affine oracles of the cover record's helpers invert with it",
    "flatgroups._inv3": "the exact inverse of a 3x3 matrix, the linear part of AffineMap.inverse",
    "lorentz.LorentzVector.__str__": "the coordinate form of a vector for library users; the walks read vertex maps, so no message prints one",
}

SWEEP = r"""
import contextlib, io, json, os, sys

entered = set()
# census --jobs 2 forks a worker on a one-core host too; the worker's
# calls are not recorded, so this process runs the path's own functions
os.cpu_count = lambda: 2


def profile(frame, event, arg):
    if event == "call":
        code = frame.f_code
        if not code.co_name.startswith("<"):
            entered.add((code.co_filename, code.co_firstlineno))


calls = json.loads(sys.argv[1])
sys.setprofile(profile)
from hyper4.cli import main

for argv in calls:
    with contextlib.redirect_stdout(io.StringIO()):
        main(argv)
sys.setprofile(None)
print(json.dumps(sorted(entered)))
"""


def _sweep_calls(tmp_path: Path) -> list[list[str]]:
    meridians = tmp_path / "meridians.txt"
    meridians.write_text("0: Eg\n1: c ^ 3\n2: a\n3: k\n4: j\n")
    # two meridians only: the enumeration of this fill does not close, but
    # it merges cosets before it meets the limit
    partial = tmp_path / "partial.txt"
    partial.write_text("1 : c\n2 : a\n")
    record = tmp_path / "record.json"
    record.write_text(json.dumps({"chi": 4, "sigma": 0, "spin_status": "unknown"}))
    return [
        ["decode", "14FF28"],
        ["decode", "14FF28", "--format", "text"],
        ["verify", "14FF28", "--double-cover"],
        ["verify", "2EBB84", "--double-cover"],
        ["verify", "FF79DA"],  # rejected: a ridge cycle fails
        ["verify", "A6783B"],  # rejected: an edge orbit loop fails
        ["verify", "ZZZZZZ"],  # undecodable
        ["cusps", "14FF28"],
        ["cusps", "7D39AC"],  # rejected: an edge orbit loop fails
        ["fill", "14FF28", "--meridians", "default"],
        ["fill", "14FF28", "--meridians", str(meridians)],
        ["fill", "14FF28", "--meridians", str(partial), "--max-cosets", "1000"],
        ["cover", "14FF28", "--cyclic", "5"],
        ["cover", "14FF28", "--cyclic", "3", "--classify-filling"],
        ["cover", "14FF28", "--cyclic", "2", "--classify-filling"],
        # below the certificate's 34 cosets: the limit bounds the degree 2n
        ["cover", "14FF28", "--cyclic", "3", "--max-cosets", "10"],
        ["classify", "--chi", "6", "--sigma", "0", "--spin"],
        ["classify", "--record", str(record)],
        ["census", str(DATA / "census_sample.txt"), "--jobs", "1"],
        ["census", str(DATA / "census_sample.txt"), "--jobs", "2"],
        ["verify"],  # bad argv: no code
    ]


def _entered(tmp_path: Path) -> set[tuple[str, int]]:
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    calls = json.dumps(_sweep_calls(tmp_path))
    proc = subprocess.run(
        [sys.executable, "-c", SWEEP, calls],
        env=env,
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert proc.returncode == 0, proc.stderr
    return {(os.path.realpath(f), line) for f, line in json.loads(proc.stdout)}


def _defined() -> dict[str, tuple[str, int]]:
    """Qualified name -> (file, first line) of every function in the
    package; a decorated function's code starts at its first decorator."""
    out = {}

    def walk(node, prefix: str, path: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                lines = [d.lineno for d in child.decorator_list] + [child.lineno]
                out[f"{prefix}.{child.name}"] = (path, min(lines))
                walk(child, f"{prefix}.{child.name}", path)
            elif isinstance(child, ast.ClassDef):
                walk(child, f"{prefix}.{child.name}", path)
            else:
                walk(child, prefix, path)

    for source in sorted(PACKAGE.glob("*.py")):
        path = os.path.realpath(source)
        walk(ast.parse(source.read_text(encoding="utf-8")), source.stem, path)
    return out


def test_every_function_is_reached_or_library_only(tmp_path):
    defined = _defined()
    entered = _entered(tmp_path)
    unreached = {name for name, where in defined.items() if where not in entered}
    assert sorted(unreached - LIBRARY_ONLY.keys()) == [], "no verb reaches these"
    assert sorted(LIBRARY_ONLY.keys() - unreached) == [], "stale LIBRARY_ONLY entries"

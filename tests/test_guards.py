"""Mathematical guards are explicit raises, which `python -O` keeps."""

import ast
from pathlib import Path

import pytest

import hyper4
from hyper4 import cell24


def test_no_assert_statements_in_package():
    package = Path(hyper4.__file__).parent
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(package.rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def test_cube_charts_are_checked_when_the_cell_is_built(monkeypatch):
    # a chart that exchanges the "+" faces of axes 0 and 1 at the 8
    # vertices (+-e_i, 1) still has one face per axis and sign, but it
    # names two opposite sides (1, +1) and (0, -1)
    chart = cell24._cube_chart
    exchange = {(0, 1): (1, 1), (1, 1): (0, 1)}

    def exchanged(u, sides):
        faces = chart(u, sides)
        if u[4] == 1:
            faces = {s: exchange.get(face, face) for s, face in faces.items()}
        return faces

    monkeypatch.setattr(cell24, "_cube_chart", exchanged)
    with pytest.raises(AssertionError) as excinfo:
        cell24.Cell24Complex()
    assert str(excinfo.value) == (
        "faces (1, 1) and (0, -1) at (-1, 0, 0, 0, 1) are not opposite or orthogonal"
    )

"""Mathematical guards are explicit raises, which `python -O` keeps."""

import ast
from pathlib import Path

import pytest

import hyper4
from hyper4.cusp import _kernel_basis
from hyper4.flatgroups import StructuralError


def test_no_assert_statements_in_package():
    package = Path(hyper4.__file__).parent
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(package.rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def test_kernel_basis_rejects_zero_vector():
    with pytest.raises(StructuralError):
        _kernel_basis((0, 0, 0, 0))

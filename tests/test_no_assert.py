"""Certificates must hold under ``python -O``, which strips ``assert``."""

import ast
import pathlib

import bventropy

SRC = pathlib.Path(bventropy.__file__).parent


def test_no_assert_in_package():
    modules = sorted(SRC.glob("*.py"))
    assert modules
    found = [
        f"{path.name}:{node.lineno}"
        for path in modules
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []

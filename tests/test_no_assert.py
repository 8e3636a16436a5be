"""Certificates must hold under ``python -O``, which strips ``assert``; and
the modules import each other at module level only, so no import cycle hides
inside a function."""

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


def test_imports_at_module_level():
    modules = sorted(SRC.glob("*.py"))
    assert modules
    found = [
        f"{path.name}:{inner.lineno}"
        for path in modules
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda))
        for inner in ast.walk(node)
        if isinstance(inner, (ast.Import, ast.ImportFrom))
    ]
    assert found == []

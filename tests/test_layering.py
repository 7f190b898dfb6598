"""Layer boundaries read from the source: the closed-form layer loads
without the rest of the package, and estimation reaches the Fock-space
layer only through its public names."""

from __future__ import annotations

import ast
from pathlib import Path

import jcsense

SRC = Path(jcsense.__file__).parent


def _load_time_nodes(tree: ast.AST):
    """Every node that runs when the module is imported: function bodies
    are skipped, class bodies are not."""
    stack = [tree]
    while stack:
        node = stack.pop()
        yield node
        for child in ast.iter_child_nodes(node):
            if not isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                stack.append(child)


def _parse(module: str) -> ast.Module:
    return ast.parse((SRC / f"{module}.py").read_text())


def test_analytic_imports_nothing_from_the_package_at_load_time():
    for node in _load_time_nodes(_parse("analytic")):
        if isinstance(node, ast.ImportFrom):
            assert node.level == 0, ast.unparse(node)
            assert not (node.module or "").startswith("jcsense"), ast.unparse(node)
        elif isinstance(node, ast.Import):
            assert not any(a.name.startswith("jcsense") for a in node.names), ast.unparse(node)


def test_metrology_uses_no_private_fockspace_name():
    for node in ast.walk(_parse("metrology")):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            if node.value.id == "fockspace":
                assert not node.attr.startswith("_"), ast.unparse(node)
        elif isinstance(node, ast.ImportFrom) and (node.module or "").endswith("fockspace"):
            assert not any(a.name.startswith("_") for a in node.names), ast.unparse(node)

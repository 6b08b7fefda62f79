"""Every concrete failure type in errors.py has a raiser in the package."""

import ast
from pathlib import Path

import specsurf

PACKAGE = Path(specsurf.__file__).parent


def leaf_error_classes() -> set[str]:
    tree = ast.parse((PACKAGE / "errors.py").read_text())
    classes = [node for node in tree.body if isinstance(node, ast.ClassDef)]
    bases = {base.id for node in classes for base in node.bases if isinstance(base, ast.Name)}
    return {node.name for node in classes} - bases


def raised_names() -> set[str]:
    names = set()
    for path in PACKAGE.rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                if isinstance(exc, ast.Name):
                    names.add(exc.id)
    return names


def test_every_leaf_error_is_raised():
    leaves = leaf_error_classes()
    assert "TooFewCorrespondencesError" in leaves
    assert sorted(leaves - raised_names()) == []

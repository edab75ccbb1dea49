"""String constants in a package source file, docstrings left out."""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Callable


def constant_hits(path: Path, match: Callable[[str], bool]) -> list[str]:
    """``path:line`` of every string constant outside docstrings that ``match`` accepts.

    The literal parts of an f-string count as constants.
    """
    tree = ast.parse(path.read_text(encoding="utf-8"))
    docstrings = {
        id(node.body[0].value)
        for node in ast.walk(tree)
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
        and node.body
        and isinstance(node.body[0], ast.Expr)
        and isinstance(node.body[0].value, ast.Constant)
    }
    return [
        f"{path.name}:{node.lineno}"
        for node in ast.walk(tree)
        if isinstance(node, ast.Constant)
        and isinstance(node.value, str)
        and match(node.value)
        and id(node) not in docstrings
    ]

"""No module imports a name it never uses.

The lint job's ``ruff check .`` rejects unused imports (rule F401); this
is the same check as a test, so it runs wherever the suite runs.  An
import counts as used when its bound name is read anywhere in the file,
listed in ``__all__``, or read inside a string annotation
(``"TickReport"`` under ``if TYPE_CHECKING:``).  ``from __future__``
imports and explicit re-exports (``import x as x``) are exempt.  Names
mentioned only in docstrings or comments are not uses.
"""

from __future__ import annotations

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

CHECKED = ("src", "tests", "examples", "benchmarks")


def _bindings(tree: ast.AST):
    """Yield ``(name, line)`` for every name an import statement binds."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if node.module == "__future__":
                continue
            for alias in node.names:
                if alias.name == "*" or alias.asname == alias.name:
                    continue
                yield alias.asname or alias.name, node.lineno
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.asname == alias.name:
                    continue
                yield alias.asname or alias.name.split(".")[0], node.lineno


def _string_annotation_names(annotation: ast.AST | None):
    if annotation is None:
        return
    for node in ast.walk(annotation):
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            try:
                parsed = ast.parse(node.value, mode="eval")
            except SyntaxError:
                continue
            for inner in ast.walk(parsed):
                if isinstance(inner, ast.Name):
                    yield inner.id


def _exported(node: ast.AST):
    """Names listed by an ``__all__ = [...]`` or ``__all__ += [...]``."""
    if isinstance(node, ast.Assign):
        targets, value = node.targets, node.value
    elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
        targets, value = [node.target], node.value
    else:
        return
    if not any(isinstance(t, ast.Name) and t.id == "__all__" for t in targets):
        return
    if isinstance(value, (ast.List, ast.Tuple)):
        for element in value.elts:
            if isinstance(element, ast.Constant) and isinstance(element.value, str):
                yield element.value


def _used(tree: ast.AST) -> set[str]:
    used: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            arguments = node.args
            every = arguments.posonlyargs + arguments.args + arguments.kwonlyargs
            every += [a for a in (arguments.vararg, arguments.kwarg) if a is not None]
            for argument in every:
                used.update(_string_annotation_names(argument.annotation))
            used.update(_string_annotation_names(node.returns))
        elif isinstance(node, ast.AnnAssign):
            used.update(_string_annotation_names(node.annotation))
        used.update(_exported(node))
    return used


def unused_imports(source: str, filename: str = "<source>") -> list[tuple[str, int]]:
    """``(name, line)`` of every import in *source* whose name is never used."""
    tree = ast.parse(source, filename)
    used = _used(tree)
    return sorted(
        ((name, line) for name, line in _bindings(tree) if name not in used),
        key=lambda item: item[1],
    )


def test_no_unused_imports():
    found = {}
    for top in CHECKED:
        for path in sorted((ROOT / top).rglob("*.py")):
            unused = unused_imports(path.read_text(), str(path))
            if unused:
                found[path.relative_to(ROOT).as_posix()] = unused
    assert not found, f"unused imports (ruff F401): {found}"


def test_the_check_sees_what_ruff_sees():
    source = '''
from __future__ import annotations
import os
import os.path
import json as json
from typing import TYPE_CHECKING, Any, Callable
from collections import OrderedDict, deque
if TYPE_CHECKING:
    from decimal import Decimal
__all__ = ["deque"]

def f(value: "Decimal") -> Any:
    """Callable is named only here."""
    return TYPE_CHECKING
'''
    assert unused_imports(source) == [("os", 3), ("os", 4), ("Callable", 6), ("OrderedDict", 7)]

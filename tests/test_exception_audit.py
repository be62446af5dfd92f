"""No handler under ``src/`` catches every exception without a reason.

A handler for ``Exception`` or ``BaseException`` (alone or in a tuple), or
a bare ``except:``, hides bugs as fallbacks.  Each one left must be on
:data:`ALLOWED`, keyed by (path under ``src/repro``, enclosing function),
with the reason it has to catch everything.  A new site fails this test,
and so does an entry whose site is gone.
"""

from __future__ import annotations

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "repro"

BROAD = {"Exception", "BaseException"}

ALLOWED = {
    ("runtime/transactions.py", "TransactionEngine._check_constraints"): (
        "a compiled constraint that raises defers to the interpreter, and an "
        "interpreted constraint that raises aborts the request with its error"
    ),
    ("runtime/reactive.py", "ReactiveDispatcher.dispatch"): (
        "a handler condition that raises on a row does not fire"
    ),
    ("engine/compile/kernels.py", "KernelLowering.lower"): (
        "a codegen error falls back to row operators and is counted in "
        "`errors`, which the tests' autouse fixture fails on"
    ),
    ("sgl/compiler/expr_lower.py", "lower_expression"): (
        "an unknown function becomes an SGLCompileError with the source line"
    ),
    ("shard/worker.py", "worker_main"): (
        "a worker sends any failure to the coordinator instead of dying silently"
    ),
    ("service/interest.py", "InterestManager.subscribe"): (
        "rolls back a half-registered subscription, then re-raises"
    ),
    ("service/server.py", "SubscriptionServer._handle_connection"): (
        "a bad request is answered with an error and must not kill the server"
    ),
}


def _catches_everything(handler: ast.ExceptHandler) -> bool:
    if handler.type is None:
        return True
    caught = handler.type.elts if isinstance(handler.type, ast.Tuple) else [handler.type]
    return any(isinstance(node, ast.Name) and node.id in BROAD for node in caught)


def _broad_handlers(tree: ast.AST, scope: str = ""):
    """Yield the enclosing qualified name of every catch-all handler."""
    for child in ast.iter_child_nodes(tree):
        inner = scope
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            inner = f"{scope}.{child.name}" if scope else child.name
        if isinstance(child, ast.ExceptHandler) and _catches_everything(child):
            yield scope, child.lineno
        yield from _broad_handlers(child, inner)


def test_every_catch_all_handler_is_allowlisted():
    found: dict[tuple[str, str], list[int]] = {}
    for path in sorted(PACKAGE.rglob("*.py")):
        relative = path.relative_to(PACKAGE).as_posix()
        for scope, line in _broad_handlers(ast.parse(path.read_text(), str(path))):
            found.setdefault((relative, scope), []).append(line)
    unlisted = {key: lines for key, lines in found.items() if key not in ALLOWED}
    assert not unlisted, f"catch-all handlers not on the allowlist: {unlisted}"
    stale = set(ALLOWED) - set(found)
    assert not stale, f"allowlist entries whose handler is gone: {stale}"


def test_the_audit_sees_every_catch_all_form():
    source = """
def f():
    try: pass
    except: pass
    try: pass
    except (ValueError, Exception): pass
    try: pass
    except BaseException as exc: pass
    try: pass
    except ValueError: pass
"""
    assert [line for _, line in _broad_handlers(ast.parse(source))] == [4, 6, 8]

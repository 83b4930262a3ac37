"""The library serves nothing: no module under ``src/`` imports a network
or event-loop stack.

Every observability surface reads a finished run ledger or an exported
trace (``repro stats`` / ``doctor`` / ``analyze`` / ``trace``); none
listens on a socket. A module that needs ``asyncio``, ``socket``,
``http`` or ``urllib`` is a server or client that nothing in the
evaluation reads, so it does not belong in the package.
"""

from __future__ import annotations

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

FORBIDDEN = {"asyncio", "socket", "http", "urllib"}


def _imported_roots(tree: ast.AST):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.level == 0 \
                and node.module:
            yield node.module.split(".")[0]


def test_no_source_imports_a_network_stack():
    offenders = []
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        for root in sorted(set(_imported_roots(tree)) & FORBIDDEN):
            offenders.append(f"{path.relative_to(SRC)}: {root}")
    assert offenders == []


def test_checker_sees_nested_and_from_imports():
    src = ("def f():\n    import urllib.request\n"
           "from http.server import HTTPServer\nimport asyncio as aio\n")
    assert set(_imported_roots(ast.parse(src))) == {"urllib", "http",
                                                     "asyncio"}

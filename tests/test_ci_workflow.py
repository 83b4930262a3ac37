"""Every repo path and ``repro.cli`` subcommand a CI step runs exists.

A ``run:`` line in ``.github/workflows/ci.yml`` that names a deleted
script, test module or subcommand fails only on the CI runner, after
merge. This test reads each ``run:`` command (one-line and ``|`` block
forms), checks every relative path token against the checkout and every
``python -m repro.cli <word>`` against the subcommands of
:func:`repro.cli.build_parser`.
"""

from __future__ import annotations

import re
import shlex
from pathlib import Path

from test_docs_commands import _registered

ROOT = Path(__file__).resolve().parent.parent
WORKFLOW = ROOT / ".github" / "workflows" / "ci.yml"

_RUN = re.compile(r"^(\s*)(?:- )?run:\s*(.*)$")
_CLI = re.compile(r"-m repro\.cli +([a-z][a-z0-9-]*)")


def _run_commands(text: str):
    lines = text.splitlines()
    for i, line in enumerate(lines):
        m = _RUN.match(line)
        if not m:
            continue
        if m.group(2) not in ("|", ">"):
            yield m.group(2)
            continue
        indent = len(m.group(1))
        for body in lines[i + 1:]:
            if body.strip() and len(body) - len(body.lstrip()) <= indent:
                break
            yield body.strip()


def _repo_paths(command: str):
    for token in shlex.split(command, comments=True):
        token = token.split("=", 1)[-1]
        # a quoted ``python -c`` program is one token with spaces
        if "/" in token and not token.startswith("-") \
                and "://" not in token and " " not in token:
            yield token


def test_ci_run_lines_name_existing_paths_and_subcommands():
    commands = list(_run_commands(WORKFLOW.read_text(encoding="utf-8")))
    assert commands, "no run: lines found in ci.yml"
    missing = [p for c in commands for p in _repo_paths(c)
               if not (ROOT / p).exists()]
    registered = _registered()
    unknown = [name for c in commands for name in _CLI.findall(c)
               if name not in registered]
    assert missing == [] and unknown == []


def test_scanner_reads_run_lines_only():
    text = ("steps:\n  - name: x benchmarks/a.py\n"
            "    run: PYTHONPATH=src python -m pytest bench/ -q\n"
            "  - run: |\n      python -m repro.cli doctor l.jsonl\n"
            "      python tools/x.py --out=a/b\n"
            "  - uses: actions/checkout@v4\n")
    commands = list(_run_commands(text))
    assert commands == ["PYTHONPATH=src python -m pytest bench/ -q",
                        "python -m repro.cli doctor l.jsonl",
                        "python tools/x.py --out=a/b"]
    assert [p for c in commands for p in _repo_paths(c)] == [
        "bench/", "tools/x.py", "a/b"]
    assert _CLI.findall(commands[1]) == ["doctor"]

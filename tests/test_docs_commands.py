"""Every ``repro <subcommand>`` the docs show is one the CLI registers.

Command lines in ``README.md`` and ``docs/*.md`` (fenced blocks and
inline code spans) are what readers copy; a retired subcommand left in
them fails at the reader's prompt. This test reads each code span for
``repro <word>`` and ``python -m repro.cli <word>`` and checks the word
against the subcommands of :func:`repro.cli.build_parser`.
"""

from __future__ import annotations

import argparse
import re
from pathlib import Path

from repro.cli import build_parser

ROOT = Path(__file__).resolve().parent.parent

_FENCE = re.compile(r"```.*?```", re.S)
_INLINE = re.compile(r"`([^`\n]+)`")
#: ``repro pack/unpack`` names two subcommands; ``from repro import``
#: and ``repro.experiments`` name none
_CALL = re.compile(r"(?:(?<![\w./-])repro|-m repro\.cli) +"
                   r"([a-z][a-z0-9-]*(?:/[a-z][a-z0-9-]*)*)")


def _doc_files():
    return [ROOT / "README.md"] + sorted((ROOT / "docs").glob("*.md"))


def _code_spans(text: str):
    for block in _FENCE.findall(text):
        yield block
    yield from _INLINE.findall(_FENCE.sub("", text))


def _subcommands_in(text: str):
    for span in _code_spans(text):
        for line in span.splitlines():
            if re.match(r"\s*(from|import)\s", line):
                continue
            for m in _CALL.finditer(line):
                yield from m.group(1).split("/")


def _registered() -> set[str]:
    parser = build_parser()
    (action,) = [a for a in parser._actions
                 if isinstance(a, argparse._SubParsersAction)]
    return set(action.choices)


def test_documented_subcommands_are_registered():
    registered = _registered()
    unknown = []
    for path in _doc_files():
        text = path.read_text(encoding="utf-8")
        for name in sorted(set(_subcommands_in(text))):
            if name not in registered:
                unknown.append(f"{path.relative_to(ROOT)}: repro {name}")
    assert unknown == []


def test_scanner_reads_code_spans_only():
    text = ("the repro package\n```bash\nrepro analyze l.jsonl\n"
            "python -m repro.cli doctor --check\nfrom repro import x\n"
            "```\nrun `repro pack/unpack --workers` or "
            "`python -m repro.experiments fig10`\n")
    assert sorted(_subcommands_in(text)) == ["analyze", "doctor", "pack",
                                             "unpack"]

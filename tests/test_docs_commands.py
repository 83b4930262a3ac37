"""Every ``repro <subcommand> --flag`` the docs show is one the CLI
registers.

Command lines in ``README.md``, ``docs/*.md`` and the verify skill notes
(fenced blocks and inline code spans) are what readers copy; a retired
subcommand or option left in them fails at the reader's prompt. This
test reads each code span for ``repro <word>`` and ``python -m repro.cli
<word>`` and checks the word against the subcommands of
:func:`repro.cli.build_parser`, and each ``--flag`` that follows on the
same command line against that subcommand's options.
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
#: a command line ends at a shell comment or separator
_CMD_END = re.compile(r"\s#|\||&&|;")
_FLAG = re.compile(r"(?<![\w-])--[a-z][a-z0-9-]*")


def _doc_files():
    return ([ROOT / "README.md"] + sorted((ROOT / "docs").glob("*.md"))
            + [ROOT / ".claude" / "skills" / "verify" / "SKILL.md"])


def _code_spans(text: str):
    for block in _FENCE.findall(text):
        yield block
    yield from _INLINE.findall(_FENCE.sub("", text))


def _calls_in(text: str):
    """``(subcommand, flags)`` per ``repro`` call in the code spans."""
    for span in _code_spans(text):
        for line in span.replace("\\\n", " ").splitlines():
            if re.match(r"\s*(from|import)\s", line):
                continue
            for m in _CALL.finditer(line):
                tail = _CMD_END.split(line[m.end():], maxsplit=1)[0]
                flags = _FLAG.findall(tail)
                for name in m.group(1).split("/"):
                    yield name, flags


def _subcommands_in(text: str):
    for name, _flags in _calls_in(text):
        yield name


def _flags_in(text: str):
    for name, flags in _calls_in(text):
        for flag in flags:
            yield name, flag


def _subparsers() -> dict[str, argparse.ArgumentParser]:
    parser = build_parser()
    (action,) = [a for a in parser._actions
                 if isinstance(a, argparse._SubParsersAction)]
    return dict(action.choices)


def _registered() -> set[str]:
    return set(_subparsers())


def test_documented_subcommands_are_registered():
    registered = _registered()
    unknown = []
    for path in _doc_files():
        text = path.read_text(encoding="utf-8")
        for name in sorted(set(_subcommands_in(text))):
            if name not in registered:
                unknown.append(f"{path.relative_to(ROOT)}: repro {name}")
    assert unknown == []


def test_documented_flags_are_registered():
    parsers = _subparsers()
    unknown = []
    for path in _doc_files():
        text = path.read_text(encoding="utf-8")
        for name, flag in sorted(set(_flags_in(text))):
            if name in parsers and \
                    flag not in parsers[name]._option_string_actions:
                unknown.append(f"{path.relative_to(ROOT)}: "
                               f"repro {name} {flag}")
    assert unknown == []


def test_scanner_reads_code_spans_only():
    text = ("the repro package\n```bash\nrepro analyze l.jsonl\n"
            "python -m repro.cli doctor --check\nfrom repro import x\n"
            "```\nrun `repro pack/unpack --workers` or "
            "`python -m repro.experiments fig10`\n")
    assert sorted(_subcommands_in(text)) == ["analyze", "doctor", "pack",
                                             "unpack"]
    assert sorted(_flags_in(text)) == [("doctor", "--check"),
                                       ("pack", "--workers"),
                                       ("unpack", "--workers")]


def test_flag_scan_follows_continuations_and_stops_at_comments():
    text = ("```bash\nrepro compress a b --dims 4 \\\n"
            "      --trace t.jsonl   # --not-a-flag\n"
            "repro analyze l.jsonl | grep --count x; repro doctor\n```\n")
    assert sorted(_flags_in(text)) == [("compress", "--dims"),
                                       ("compress", "--trace")]

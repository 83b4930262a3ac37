"""Environment knobs stay few: every ``REPRO_*`` read in ``src/`` is listed.

Each environment variable the library reads is an option every test and
benchmark configuration must cover. The library reads exactly these
three operational settings; selecting between execution paths is not one
of them.
"""

from __future__ import annotations

import re
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

ALLOWED = {"REPRO_FLIGHT_RECORDER", "REPRO_QUALITY_AUDIT",
           "REPRO_WORKER_CACHE_LIMIT"}

#: ``os.environ.get("X"``, ``os.environ["X"]``, ``os.getenv("X"`` and
#: ``"X" in os.environ`` — the ways Python code reads a variable
_READ = re.compile(
    r"""(?:environ(?:\.get)?\s*[\[(]|getenv\s*\()\s*["'](REPRO_[A-Z_]+)"""
    r"""|["'](REPRO_[A-Z_]+)["']\s+in\s+os\.environ""")


def _sources():
    return sorted(SRC.rglob("*.py"))


def test_env_reads_are_the_operational_allowlist():
    reads = set()
    for path in _sources():
        for m in _READ.finditer(path.read_text(encoding="utf-8")):
            reads.add(m.group(1) or m.group(2))
    assert reads == ALLOWED


def test_no_source_mentions_a_retired_knob():
    # docstrings and comments must not advertise a variable nothing reads
    mentioned = set()
    for path in _sources():
        mentioned |= set(re.findall(r"REPRO_[A-Z_]+",
                                    path.read_text(encoding="utf-8")))
    assert mentioned <= ALLOWED

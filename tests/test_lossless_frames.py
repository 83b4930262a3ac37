"""Lossless frames written by earlier encoders still decode byte-identically.

``data/lossless_frames/`` holds frames written before the orchestrator's
backend rule replaced its sampling cost model. Their encoders chose
backends the current one no longer writes (``gle-rle`` and ``gle-pack``,
GLE frames with one stage switched off), so the files cannot be
regenerated. ``manifest.json`` records, per file, its form, the SHA-256
of the file and of its decoded bytes, and for ``ORC1`` frames the frame
flags and the backend id of every stream.

* ``orc1-<backend>.bin``: one raw stream each (no ``EXTCRC`` flag),
  covering backend ids 0-4;
* ``orc1-container.bin``: a 16^3 cuSZ-i ``RPRC`` container (``EXTCRC``
  flag set: integrity rides on the container's CRC);
* ``legacy-*.bin``: the three pre-orchestrator forms of that container,
  a bare ``GLE1`` frame, the stored container and a zlib stream.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

from repro.lossless import orchestrator as orc
from repro.lossless import orchestrate_decompress

DATA = Path(__file__).resolve().parent / "data" / "lossless_frames"
MANIFEST = json.loads((DATA / "manifest.json").read_text())


def _sha(buf) -> str:
    return hashlib.sha256(buf).hexdigest()


def _blob(name: str) -> bytes:
    blob = (DATA / name).read_bytes()
    assert _sha(blob) == MANIFEST[name]["blob_sha256"]
    return blob


@pytest.mark.parametrize("name", sorted(MANIFEST))
def test_frame_decodes_byte_identically(name):
    assert _sha(orchestrate_decompress(_blob(name))) == \
        MANIFEST[name]["decoded_sha256"]


@pytest.mark.parametrize("name", sorted(n for n, e in MANIFEST.items()
                                        if e["form"] == "ORC1"))
def test_orc1_frame_header_matches_manifest(name):
    blob = _blob(name)
    _, _, flags, _, n = orc._FRAME_HDR.unpack_from(blob, 0)
    pos = orc._FRAME_HDR.size
    ids = []
    for _ in range(n):
        pos += 1 + blob[pos]
        bid, _ = orc._STREAM_HDR.unpack_from(blob, pos)
        pos += orc._STREAM_HDR.size
        ids.append(bid)
    assert flags == MANIFEST[name]["flags"]
    assert ids == MANIFEST[name]["backend_ids"]


def test_fixture_set_covers_every_written_form():
    entries = MANIFEST.values()
    assert {e["form"] for e in entries} == {"ORC1", "GLE1", "RPRC", "zlib"}
    ids = {b for e in entries for b in e.get("backend_ids", ())}
    assert ids == {0, 1, 2, 3, 4}
    assert {e["flags"] for e in entries if "flags" in e} == \
        {0, orc._ORC_FLAG_EXTCRC}

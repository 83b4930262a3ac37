"""Version-2 Huffman streams still decode, through the one decoder.

``data/huffman_v2/`` holds blobs written by the version-2 encoder
(1024-bit gap-array chunks with a u16 symbol count and a u8 gap each)
for every Huffman codec over 1D/2D/3D fields (``smooth_field(shape,
seed=ndim)``, rel eb 1e-3, ``lossless="none"``), with the SHA-256 of
each blob and of its decoded array in ``manifest.json``. They were
written before the version-3 writer replaced it, so they cannot be
regenerated from ``src/`` (``oracles.encode_loop(version=2)`` writes the
same stream layout for synthetic tests). They must decode
byte-identically at every probe width, agree with the oracle decoder,
and equal a fresh round trip of the same field. The cuSZ-i containers
inside ``data/lossless_frames/`` hold version-2 streams too.
"""

from __future__ import annotations

import functools
import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

import repro.core.pipeline as pipeline
from conftest import smooth_field
from oracles import decode_loop
from repro.common.container import parse_container
from repro.common.lossless_wrap import unwrap_lossless, wrap_lossless
from repro.huffman import (FORMAT_KEY, FORMAT_VERSION, PROBE_WIDTHS,
                           HuffmanStreamV2, huffman_decode, read_stream)
from repro.lossless import orchestrate_decompress
from repro.registry import get_compressor

DATA = Path(__file__).resolve().parent / "data"
MANIFEST = json.loads((DATA / "huffman_v2" / "manifest.json").read_text())
SHAPES = {"1d": (600,), "2d": (40, 36), "3d": (20, 18, 16)}
#: the lossless frames whose decoded bytes are a cuSZ-i container, and
#: the SHA-256 of the 16^3 float32 field that container decodes to
FRAME_CONTAINERS = ("legacy-gle1.bin", "legacy-rprc.bin", "legacy-zlib.bin",
                    "orc1-container.bin")
FRAME_FIELD_SHA256 = \
    "4a663e796d2e5d5b90c876d169d606756c8a16891915a39c2d6a7028c0623551"


def _sha(buf) -> str:
    return hashlib.sha256(buf).hexdigest()


@functools.lru_cache(maxsize=None)
def _blob(name: str) -> bytes:
    blob = (DATA / "huffman_v2" / f"{name}.bin").read_bytes()
    assert _sha(blob) == MANIFEST[name]["blob_sha256"]
    return blob


def _v2_stream(name: str) -> HuffmanStreamV2:
    _, meta, segments = parse_container(unwrap_lossless(_blob(name)))
    assert meta[FORMAT_KEY] == 2
    stream = read_stream(segments["huffman"], meta)
    assert isinstance(stream, HuffmanStreamV2)
    return stream


def test_fixture_set_covers_every_huffman_codec():
    assert {v["codec"] for v in MANIFEST.values()} == \
        {"cuszi", "sz3", "qoz", "cusz", "sz14"}
    assert len(MANIFEST) == 15


@pytest.mark.parametrize("name", sorted(MANIFEST))
def test_v2_blob_decodes_unchanged(name):
    rec = MANIFEST[name]
    out = get_compressor(rec["codec"]).decompress(_blob(name))
    assert out.dtype.name == rec["dtype"]
    assert list(out.shape) == rec["shape"]
    assert _sha(out.tobytes()) == rec["decoded_sha256"]


@pytest.mark.parametrize("name", sorted(MANIFEST))
def test_v2_stream_matches_oracle_at_every_width(name):
    stream = _v2_stream(name)
    expected = decode_loop(stream)
    assert expected.size == stream.n_symbols
    for width in (None, *PROBE_WIDTHS):
        np.testing.assert_array_equal(
            huffman_decode(stream, probe_bits=width), expected)


@pytest.mark.parametrize("name", sorted(MANIFEST))
def test_fresh_round_trip_decodes_to_the_same_field(name):
    """The same field compressed today reconstructs to the very bytes
    the version-2 blob does, from a smaller blob."""
    rec = MANIFEST[name]
    shape = SHAPES[name.rsplit("-", 1)[1]]
    comp = get_compressor(rec["codec"], eb=1e-3, mode="rel",
                          lossless="none")
    blob = comp.compress(smooth_field(shape, seed=len(shape)))
    _, meta, _ = parse_container(unwrap_lossless(blob))
    assert meta[FORMAT_KEY] == FORMAT_VERSION
    assert len(blob) < len(_blob(name))
    assert _sha(comp.decompress(blob).tobytes()) == rec["decoded_sha256"]


@pytest.mark.parametrize("frame", FRAME_CONTAINERS)
def test_lossless_frame_container_decodes_unchanged(monkeypatch, frame):
    """The cuSZ-i container inside each lossless frame decodes to the
    same field through the library decoder and through the oracle."""
    inner = orchestrate_decompress((DATA / "lossless_frames"
                                    / frame).read_bytes())
    codec, meta, _ = parse_container(inner)
    assert meta[FORMAT_KEY] == 2
    blob = wrap_lossless(inner, "none")
    outs = []
    for decode in (huffman_decode, decode_loop):
        monkeypatch.setattr(pipeline, "huffman_decode", decode)
        outs.append(get_compressor(codec).decompress(blob).tobytes())
    assert _sha(outs[0]) == _sha(outs[1]) == FRAME_FIELD_SHA256

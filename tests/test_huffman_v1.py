"""Version-1 Huffman streams still decode, through the one decoder.

``data/huffman_v1/`` holds blobs written by the version-1 encoder
(fixed 256-symbol chunks, each byte-aligned, a per-chunk bit table) for
every Huffman codec over 1D/2D/3D fields (``smooth_field(shape,
seed=ndim)``, rel eb 1e-3, ``lossless="none"``), with the SHA-256 of
each blob and of its decoded array in ``manifest.json``. Their containers
carry no ``huffman_format`` meta key, which is what marks them version 1.
They must decode byte-identically through the shared core at every probe
width, agree with the oracle decoder, and equal a fresh round trip of
the same field (a stream of the version written today).
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from conftest import smooth_field
from oracles import decode_loop
from repro.common.container import parse_container
from repro.common.errors import CorruptStreamError
from repro.common.lossless_wrap import unwrap_lossless
from repro.huffman import (FORMAT_KEY, FORMAT_VERSION, PROBE_WIDTHS,
                           HuffmanStreamV1, huffman_decode, read_stream)
from repro.registry import get_compressor

DATA = Path(__file__).resolve().parent / "data" / "huffman_v1"
MANIFEST = json.loads((DATA / "manifest.json").read_text())
SHAPES = {"1d": (600,), "2d": (40, 36), "3d": (20, 18, 16)}


def _sha(buf) -> str:
    return hashlib.sha256(buf).hexdigest()


@functools.lru_cache(maxsize=None)
def _blob(name: str) -> bytes:
    blob = (DATA / f"{name}.bin").read_bytes()
    assert _sha(blob) == MANIFEST[name]["blob_sha256"]
    return blob


def _v1_stream(name: str) -> HuffmanStreamV1:
    _, meta, segments = parse_container(unwrap_lossless(_blob(name)))
    assert FORMAT_KEY not in meta
    stream = read_stream(segments["huffman"], meta)
    assert isinstance(stream, HuffmanStreamV1)
    return stream


def test_fixture_set_covers_every_huffman_codec():
    assert {v["codec"] for v in MANIFEST.values()} == \
        {"cuszi", "sz3", "qoz", "cusz", "sz14"}
    assert len(MANIFEST) == 15


@pytest.mark.parametrize("name", sorted(MANIFEST))
def test_v1_blob_decodes_unchanged(name):
    rec = MANIFEST[name]
    out = get_compressor(rec["codec"]).decompress(_blob(name))
    assert out.dtype.name == rec["dtype"]
    assert list(out.shape) == rec["shape"]
    assert _sha(out.tobytes()) == rec["decoded_sha256"]


@pytest.mark.parametrize("name", sorted(MANIFEST))
def test_v1_stream_matches_oracle_at_every_width(name):
    stream = _v1_stream(name)
    expected = decode_loop(stream)
    assert expected.size == stream.n_symbols
    for width in (None, *PROBE_WIDTHS):
        np.testing.assert_array_equal(
            huffman_decode(stream, probe_bits=width), expected)


@pytest.mark.parametrize("name", sorted(MANIFEST))
def test_v2_round_trip_decodes_to_the_same_field(name):
    """The same field compressed today (a stream of the current version;
    version 2 when this test was written) reconstructs to the very bytes
    the version-1 blob does."""
    rec = MANIFEST[name]
    shape = SHAPES[name.rsplit("-", 1)[1]]
    comp = get_compressor(rec["codec"], eb=1e-3, mode="rel",
                          lossless="none")
    blob = comp.compress(smooth_field(shape, seed=len(shape)))
    _, meta, _ = parse_container(unwrap_lossless(blob))
    assert meta[FORMAT_KEY] == FORMAT_VERSION
    assert _sha(comp.decompress(blob).tobytes()) == rec["decoded_sha256"]


class TestHostileV1Streams:
    """The version-1 table checks, on a real fixture stream."""

    @pytest.fixture
    def stream(self):
        return _v1_stream("cuszi-3d")

    @staticmethod
    def _raises(stream):
        for decode in (huffman_decode, decode_loop):
            with pytest.raises(CorruptStreamError):
                decode(stream)

    def test_stretched_chunk_bits(self, stream):
        bits = stream.chunk_bits.copy()
        bits[0] += 1
        self._raises(dataclasses.replace(stream, chunk_bits=bits))

    def test_symbol_count_mismatch(self, stream):
        self._raises(dataclasses.replace(
            stream, n_symbols=stream.n_symbols + stream.chunk_size))

    def test_zero_chunk_size(self, stream):
        self._raises(dataclasses.replace(stream, chunk_size=0))

    def test_payload_checksum(self, stream):
        payload = stream.payload.copy()
        payload[3] ^= 0x20
        self._raises(dataclasses.replace(stream, payload=payload))


@pytest.mark.parametrize("version", [0, 4, "2", 2.0, True, None, [2]])
def test_unknown_stream_version_rejected(version):
    # the version is checked before the segment is parsed
    with pytest.raises(CorruptStreamError, match="version"):
        read_stream(b"", {FORMAT_KEY: version})


def test_meta_not_an_object_rejected():
    with pytest.raises(CorruptStreamError):
        read_stream(b"", [FORMAT_KEY])

"""Fault-injection tests: corrupted archives must fail loudly.

The container CRC (and the Huffman payload CRC) turn any bit flip into a
:class:`~repro.common.errors.ReproError` instead of a silently wrong
reconstruction — checked here for every codec and several corruption
positions.
"""

import json
import math
import time
import tracemalloc
from unittest import mock

import numpy as np
import pytest

from conftest import rough_field, smooth_field
from repro.common import container
from repro.common.container import build_container, parse_container
from repro.common.errors import CorruptStreamError, DataError, ReproError
from repro.common.lossless_wrap import unwrap_lossless, wrap_lossless
from repro.common.quantizer import DEFAULT_RADIUS
from repro.core.ginterp.engine import HEADER_KEYS
from repro.registry import available, get_compressor


def _flip(blob: bytes, pos: int) -> bytes:
    arr = bytearray(blob)
    arr[pos] ^= 0x55
    return bytes(arr)


@pytest.fixture(scope="module")
def blobs():
    data = smooth_field((24, 24, 24), seed=100)
    out = {}
    for codec in available():
        if codec == "cuzfp":
            comp = get_compressor(codec, rate=4.0, lossless="none")
        else:
            comp = get_compressor(codec, eb=1e-3, mode="rel",
                                  lossless="none")
        out[codec] = (comp, comp.compress(data))
    return out


@pytest.mark.parametrize("codec", ["cuszi", "cusz", "cuszp", "cuszx",
                                   "fzgpu", "cuzfp", "sz3", "qoz", "sz14"])
class TestCorruption:
    @pytest.mark.parametrize("where", ["header", "early", "middle",
                                       "late"])
    def test_flip_detected(self, blobs, codec, where):
        comp, blob = blobs[codec]
        pos = {"header": 8,
               "early": len(blob) // 4,
               "middle": len(blob) // 2,
               "late": len(blob) - 3}[where]
        with pytest.raises(ReproError):
            comp.decompress(_flip(blob, pos))

    def test_truncation_detected(self, blobs, codec):
        comp, blob = blobs[codec]
        with pytest.raises(ReproError):
            comp.decompress(blob[: len(blob) // 2])

    def test_extension_detected(self, blobs, codec):
        comp, blob = blobs[codec]
        with pytest.raises(ReproError):
            comp.decompress(blob + b"\x00\x01\x02\x03")


class TestCorruptionWithGLE:
    def test_flip_inside_gle_frame_never_silently_wrong(self):
        # a flip must either be detected or land in dead padding bits
        # (e.g. the pack stage's block padding) and change nothing
        data = smooth_field((20, 20, 20), seed=101)
        comp = get_compressor("cuszi", eb=1e-2, mode="rel",
                              lossless="gle")
        blob = comp.compress(data)
        clean = comp.decompress(blob)
        for pos in (10, len(blob) // 3, len(blob) // 2, len(blob) - 2):
            try:
                out = comp.decompress(_flip(blob, pos))
            except ReproError:
                continue
            np.testing.assert_array_equal(out, clean)


def _restamp(codec: str, meta: dict, segments: dict) -> bytes:
    """Rebuild a container around forged metadata with a valid CRC. The
    metadata is written with JSON's NaN/Infinity literals allowed, which
    the container writer refuses but its parser accepts."""
    with mock.patch.object(container, "_encode_json", lambda m: json.dumps(
            m, separators=(",", ":")).encode("utf-8")):
        inner = build_container(codec, meta, segments)
    return wrap_lossless(inner, "none")


#: forged header values, by forgery name: (key, value)
_HEADER_VALUES = {
    "dtype-int32": ("dtype", "int32"),
    "dtype-float16": ("dtype", "float16"),
    "abs_eb-nan": ("abs_eb", math.nan),
    "abs_eb-inf": ("abs_eb", math.inf),
    "abs_eb-zero": ("abs_eb", 0.0),
    "abs_eb-negative": ("abs_eb", -1e-3),
    "radius-1": ("radius", 1),
    # a valid radius whose alphabet is not the Huffman stream's
    "radius-mismatch": ("radius", DEFAULT_RADIUS // 2),
    "spec-not-a-dict": ("spec", 8),
    "huffman_format-3": ("huffman_format", 3),
    "huffman_format-str": ("huffman_format", "2"),
    # a version-2 stream read as version 1 must fail its checks
    "huffman_format-1": ("huffman_format", 1),
}


def _forge_geometry(blob: bytes, forgery: str) -> bytes:
    """Rewrite an interpolation blob's header and re-stamp the container
    CRC, so only the decoder's own checks can catch it."""
    codec, meta, segments = parse_container(unwrap_lossless(blob))
    # cuSZ-i decodes the padded grid; SZ3/QoZ decode ``shape`` itself
    key = "padded_shape" if "padded_shape" in meta else "shape"
    item = np.dtype(meta["dtype"]).itemsize
    if forgery in ("huge-grid", "overflowing-grid"):
        extent = 512 if forgery == "huge-grid" else 1 << 24
        meta[key] = [extent] * len(meta[key])
        # one anchor covers the whole forged grid
        meta["spec"]["anchor_stride"] = 1 << 30
        segments["anchors"] = segments["anchors"][:item]
    elif forgery == "short-anchors":
        segments["anchors"] = segments["anchors"][:-item]
    elif forgery == "bad-extent":
        meta[key][0] = (meta["shape"][0] - 1 if key == "padded_shape"
                        else 0)
    elif forgery.startswith("missing-"):
        del meta[forgery[len("missing-"):]]
    else:
        field, value = _HEADER_VALUES[forgery]
        meta[field] = value
    return _restamp(codec, meta, segments)


#: keys only cuSZ-i's header carries
_CUSZI_KEYS = ("padded_shape", "n_outliers")
_FORGERIES = ["huge-grid", "overflowing-grid", "short-anchors",
              "bad-extent", *_HEADER_VALUES, "missing-huffman_format",
              *(f"missing-{k}" for k in (*HEADER_KEYS, *_CUSZI_KEYS))]


@pytest.mark.parametrize("codec,forgery", [
    (codec, forgery) for codec in ("cuszi", "sz3", "qoz")
    for forgery in _FORGERIES
    if codec == "cuszi"
    or forgery not in [f"missing-{k}" for k in _CUSZI_KEYS]])
def test_forged_geometry_rejected_before_allocation(blobs, codec, forgery):
    """Header geometry and scalars the payload CRCs cannot vouch for must
    raise a typed error before anything is decoded, compiled or allocated
    from them."""
    comp, blob = blobs[codec]
    forged = _forge_geometry(blob, forgery)
    tracemalloc.start()
    t0 = time.perf_counter()
    try:
        with pytest.raises(CorruptStreamError):
            comp.decompress(forged)
        elapsed = time.perf_counter() - t0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert elapsed < 0.1
    assert peak < 8 << 20


@pytest.mark.parametrize("codec", ["cuszi", "sz3", "qoz"])
def test_forged_trailing_outliers_rejected(blobs, codec):
    """Outlier values the traversal never consumes are a forged stream,
    even when the header's outlier count agrees with the segment."""
    comp, blob = blobs[codec]
    name, meta, segments = parse_container(unwrap_lossless(blob))
    extra = np.ones(2, dtype=meta["dtype"])
    segments["outliers"] += extra.tobytes()
    if "n_outliers" in meta:
        meta["n_outliers"] += extra.size
    with pytest.raises(CorruptStreamError, match="trailing"):
        comp.decompress(_restamp(name, meta, segments))


@pytest.fixture(scope="module")
def outlier_blobs():
    """Interpolation blobs with outliers: white noise, a tiny radius."""
    data = rough_field((24, 24, 24), seed=102)
    out = {}
    for codec in ("cuszi", "sz3", "qoz"):
        comp = get_compressor(codec, eb=1e-4, mode="rel", radius=8,
                              lossless="none")
        out[codec] = (comp, comp.compress(data))
    return out


@pytest.mark.parametrize("codec", ["cuszi", "sz3", "qoz"])
@pytest.mark.parametrize("segment,value", [
    ("anchors", math.nan), ("outliers", math.inf),
    ("outliers", -math.inf)], ids=["anchor-nan", "outlier-inf",
                                   "outlier-neginf"])
def test_forged_non_finite_values_rejected(outlier_blobs, codec, segment,
                                           value):
    """A non-finite anchor or outlier would spread through every later
    prediction that reads it, by an amount that depends on the kernel,
    so a CRC-valid stream carrying one must fail before the traversal."""
    comp, blob = outlier_blobs[codec]
    name, meta, segments = parse_container(unwrap_lossless(blob))
    values = np.frombuffer(segments[segment], dtype=meta["dtype"]).copy()
    assert values.size > 0
    values[values.size // 2] = value
    segments[segment] = values.tobytes()
    with mock.patch("repro.core.pipeline.interp_decompress") as cuszi, \
            mock.patch("repro.baselines.interp_cpu.interp_decompress") as cpu:
        with pytest.raises(CorruptStreamError, match="non-finite"):
            comp.decompress(_restamp(name, meta, segments))
    cuszi.assert_not_called()
    cpu.assert_not_called()


@pytest.mark.parametrize("codec", ["cuszi", "sz3", "qoz"])
def test_forged_overflowing_error_bound_rejected(outlier_blobs, codec):
    """A finite error bound so large that the reconstruction overflows to
    ±inf would make the decoded bytes depend on which neighbors a kernel
    multiplies, so a CRC-valid stream carrying one must fail before the
    traversal."""
    comp, blob = outlier_blobs[codec]
    name, meta, segments = parse_container(unwrap_lossless(blob))
    meta["abs_eb"] = 1e306
    with mock.patch("repro.core.pipeline.interp_decompress") as cuszi, \
            mock.patch("repro.baselines.interp_cpu.interp_decompress") as cpu:
        with pytest.raises(CorruptStreamError, match="overflow"):
            comp.decompress(_restamp(name, meta, segments))
    cuszi.assert_not_called()
    cpu.assert_not_called()


@pytest.mark.parametrize("codec", ["cuszi", "sz3", "qoz"])
def test_overflowing_input_rejected_by_encoder(codec):
    """The encoder refuses a field whose reconstruction could overflow
    float64, so every stream it writes passes the decoders' bound."""
    data = np.full((16, 16), 1e307)
    data[3, 5] = -1e307
    comp = get_compressor(codec, eb=1e-3, mode="rel", lossless="none")
    with pytest.raises(DataError, match="overflow"):
        comp.compress(data)

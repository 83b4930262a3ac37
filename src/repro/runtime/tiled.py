"""Out-of-core tiled compression: fields larger than RAM, bounded RSS.

The real SDRBench shapes (449^3 RTM timesteps, 512^2 x 512 Miranda) do
not fit the resident-set budgets of shared nodes, and the in-memory
paths (:func:`repro.streaming.compress_slabs`, the runtime pool) all
start by materializing the whole field. This module keeps the field on
disk: the input is **memory-mapped**, one axis-0 tile at a time is
faulted in, compressed, and its blob appended to the output file through
:class:`repro.streaming.SlabStreamWriter` — so peak RSS is bounded by
one tile plus codec workspace, independent of field size.

The output is the ordinary ``RPST`` slab stream, **byte-identical** to
``compress_slabs(field, slab_planes=tile_planes, ...)`` over the same
data — every existing consumer (``decompress_slabs``,
:class:`~repro.streaming.SlabReader`, the parallel runtime) reads it
unchanged, and :func:`tiled_decompress_file` reverses it with the same
bounded-RSS discipline (one decoded tile in memory, appended to the
output file).

``mode="rel"`` needs the global value range; a streaming min/max pass
computes it tile-by-tile in the array's dtype, reproducing
``float(data.max() - data.min())`` bit-for-bit so the resolved absolute
bound — and therefore the stream — matches the in-memory path.
"""

from __future__ import annotations

import math
import mmap
import os

import numpy as np

from repro import telemetry
from repro.telemetry import recorder
from repro.common.errors import ConfigError
from repro.registry import decompress_any, get_compressor
from repro.streaming import SlabReader, SlabStreamWriter, SlabWriter

__all__ = ["tiled_compress_file", "tiled_decompress_file",
           "resolve_tile_planes", "WORKSPACE_FACTOR"]

#: codec working-set multiple of the raw tile: quant codes, outlier
#: streams, Huffman buffers and the container copy all scale with the
#: tile, and ~8x raw is a conservative envelope for the cuszi pipeline
WORKSPACE_FACTOR = 8


def resolve_tile_planes(shape: tuple, dtype, memory_budget_bytes: int,
                        workspace_factor: int = WORKSPACE_FACTOR) -> int:
    """Planes per tile so ``tile_bytes * workspace_factor`` fits the
    budget (always at least one plane — a single plane that blows the
    budget is a configuration problem the RSS test will surface, not
    something to silently split)."""
    if memory_budget_bytes <= 0:
        raise ConfigError("memory budget must be positive")
    plane_elems = int(np.prod(shape[1:], dtype=np.int64)) if len(shape) > 1 else 1
    plane_bytes = max(1, plane_elems * np.dtype(dtype).itemsize)
    planes = memory_budget_bytes // (plane_bytes * workspace_factor)
    return int(max(1, min(planes, shape[0])))


def _streaming_value_range(data: np.memmap, tile_planes: int) -> float:
    """Global ``float(max - min)`` without loading the field: running
    min/max kept as scalars of the array dtype, subtracted in that dtype
    — bit-identical to the in-memory resolution."""
    gmin = gmax = None
    for start in range(0, data.shape[0], tile_planes):
        tile = data[start:start + tile_planes]
        tmin, tmax = tile.min(), tile.max()
        gmin = tmin if gmin is None else min(gmin, tmin)
        gmax = tmax if gmax is None else max(gmax, tmax)
    return float(gmax - gmin)


def tiled_compress_file(in_path, shape: tuple, *, out_path,
                        dtype=np.float32,
                        tile_planes: int | None = None,
                        memory_budget_bytes: int | None = None,
                        codec: str = "cuszi", eb: float = 1e-3,
                        mode: str = "abs",
                        value_range: float | None = None,
                        **codec_kwargs) -> dict:
    """Compress a raw on-disk field into a slab stream, out of core.

    ``in_path`` holds the field as flat binary in C order (``.raw`` /
    ``ndarray.tofile`` layout). Exactly one of ``tile_planes`` or
    ``memory_budget_bytes`` picks the tile size. Returns a summary dict
    (``n_tiles``, ``tile_planes``, ``bytes_in``, ``bytes_out``,
    ``value_range`` when resolved).
    """
    shape = tuple(int(s) for s in shape)
    if not shape or any(s <= 0 for s in shape):
        raise ConfigError(f"invalid field shape {shape}")
    dtype = np.dtype(dtype)
    if tile_planes is None:
        if memory_budget_bytes is None:
            raise ConfigError(
                "tiled compress needs tile_planes or memory_budget_bytes")
        tile_planes = resolve_tile_planes(shape, dtype,
                                          memory_budget_bytes)
    if tile_planes < 1:
        raise ConfigError("tile_planes must be >= 1")
    expected = int(np.prod(shape, dtype=np.int64)) * dtype.itemsize
    actual = os.path.getsize(in_path)
    if actual != expected:
        raise ConfigError(
            f"{in_path}: {actual} bytes on disk, shape {shape} "
            f"({dtype}) needs {expected}")

    data = np.memmap(in_path, dtype=dtype, mode="r", shape=shape)
    try:
        if mode == "rel" and value_range is None:
            value_range = _streaming_value_range(data, tile_planes)
        # SlabWriter validates the config and resolves rel->abs exactly
        # as the in-memory path; its (codec, eb, kwargs) is the work spec
        writer = SlabWriter(codec=codec, eb=eb, mode=mode,
                            value_range=value_range, **codec_kwargs)
        n_tiles = math.ceil(shape[0] / tile_planes)
        with recorder.capture("runtime.tiled_compress", codec=codec,
                              n_tiles=n_tiles, tile_planes=tile_planes,
                              bytes_in=expected) as cap, \
                open(out_path, "wb") as fp:
            stream = SlabStreamWriter(fp, n_tiles)
            for i, start in enumerate(range(0, shape[0], tile_planes)):
                tile = np.ascontiguousarray(
                    data[start:start + tile_planes])
                with telemetry.span("slab.append", index=i,
                                    bytes_in=tile.nbytes) as tsp:
                    blob = get_compressor(
                        writer.codec, eb=writer.eb, mode="abs",
                        **writer.codec_kwargs).compress(tile)
                    tsp.set(bytes_out=len(blob))
                stream.append_blob(blob)
                del tile, blob  # the RSS bound: nothing outlives its tile
            stream.close()
            cap.set(bytes_out=stream.bytes_out)
            if memory_budget_bytes is not None:
                cap.set(memory_budget_bytes=int(memory_budget_bytes))
    finally:
        del data  # drop the mapping promptly (memmap closes on gc)
    out = {"n_tiles": n_tiles, "tile_planes": int(tile_planes),
           "bytes_in": expected, "bytes_out": stream.bytes_out,
           "shape": shape, "dtype": dtype.str}
    if mode == "rel":
        out["value_range"] = float(value_range)
    return out


def tiled_decompress_file(stream_path, out_path) -> dict:
    """Decode a slab stream to a raw on-disk field, out of core.

    The stream file is memory-mapped (the slab table is parsed without
    materializing it) and tiles are decoded one at a time, each appended
    to ``out_path`` and dropped — peak RSS is one compressed tile plus
    its decoded planes. Returns ``shape``/``dtype``/``n_tiles`` so the
    caller can re-map the output.
    """
    with open(stream_path, "rb") as f, \
            mmap.mmap(f.fileno(), 0, access=mmap.ACCESS_READ) as mm:
        reader = SlabReader(mm)
        n_tiles = len(reader)
        planes = 0
        tail = None
        dtype = None
        bytes_out = 0
        with recorder.capture("runtime.tiled_decompress",
                              n_tiles=n_tiles,
                              bytes_in=len(mm)) as cap, \
                open(out_path, "wb") as out_fp:
            for i in range(n_tiles):
                tile = reader.read_slab(i)
                if tail is None:
                    tail, dtype = tile.shape[1:], tile.dtype
                elif tile.shape[1:] != tail:
                    raise ConfigError(
                        f"tile {i} cross-section {tile.shape[1:]} != "
                        f"first tile's {tail}")
                planes += tile.shape[0]
                bytes_out += tile.nbytes
                np.ascontiguousarray(tile).tofile(out_fp)
                del tile
            cap.set(bytes_out=bytes_out)
    return {"shape": (planes, *tail), "dtype": dtype.str,
            "n_tiles": n_tiles, "bytes_out": bytes_out}

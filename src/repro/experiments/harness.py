"""Shared experiment plumbing: codec runs, field selection, table text."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro import telemetry
from repro.common.errors import ConfigError
from repro.common.metrics import bit_rate, max_abs_error, psnr
from repro.datasets import get_dataset, dataset_names
from repro.registry import get_compressor

__all__ = ["CompressionRun", "run_codec", "run_codec_batch",
           "scale_fields", "EB_GRID", "format_table"]

#: the paper's Table III error bounds (value-range relative)
EB_GRID = (1e-2, 1e-3, 1e-4)


@dataclass
class CompressionRun:
    """Measured outcome of one (codec, field, settings) run."""

    codec: str
    dataset: str
    field: str
    eb: float | None
    lossless: str
    compressed_bytes: int
    n_elements: int
    original_bytes: int
    psnr: float
    max_err: float

    @property
    def ratio(self) -> float:
        return self.original_bytes / self.compressed_bytes

    @property
    def bit_rate(self) -> float:
        return bit_rate(self.n_elements, self.compressed_bytes)


def run_codec(codec: str, data: np.ndarray, *, dataset: str = "",
              field: str = "", eb: float | None = None,
              lossless: str = "none", mode: str = "rel",
              verify: bool = True, **kwargs) -> CompressionRun:
    """Compress + decompress one field, measuring size and quality.

    ``eb=None`` is for fixed-rate codecs (pass ``rate=`` through kwargs).
    """
    if eb is not None:
        comp = get_compressor(codec, eb=eb, mode=mode, lossless=lossless,
                              **kwargs)
    else:
        comp = get_compressor(codec, lossless=lossless, **kwargs)
    with telemetry.span("experiment.compress", codec=codec,
                        dataset=dataset, field=field,
                        bytes_in=data.nbytes) as sp:
        blob = comp.compress(data)
        sp.set(bytes_out=len(blob))
    telemetry.incr("experiment.runs")
    if verify:
        with telemetry.span("experiment.decompress", codec=codec,
                            dataset=dataset, field=field,
                            bytes_in=len(blob)):
            recon = comp.decompress(blob)
        quality = psnr(data, recon)
        err = max_abs_error(data, recon)
    else:
        quality = float("nan")
        err = float("nan")
    return CompressionRun(codec=codec, dataset=dataset, field=field,
                          eb=eb, lossless=lossless,
                          compressed_bytes=len(blob),
                          n_elements=data.size,
                          original_bytes=data.nbytes,
                          psnr=quality, max_err=err)


def run_codec_batch(codec: str, fields: list[tuple[str, str, np.ndarray]],
                    *, eb: float | None = None, lossless: str = "none",
                    mode: str = "rel", verify: bool = True,
                    workers: int | str | None = None,
                    **kwargs) -> list[CompressionRun]:
    """Batch form of :func:`run_codec` over many ``(dataset, field,
    data)`` triples, fanned out via :mod:`repro.runtime`.

    Results are identical to calling :func:`run_codec` per field (same
    blobs, same metrics) — ``workers`` only changes where the codec work
    runs. The default stays serial.
    """
    from repro.runtime import map_compress, map_decompress
    fields = list(fields)
    codec_kwargs = dict(kwargs, lossless=lossless)
    if eb is not None:
        codec_kwargs.update(eb=eb, mode=mode)
    with telemetry.span("experiment.batch", codec=codec,
                        n_fields=len(fields)):
        blobs = map_compress([data for _, _, data in fields], codec,
                             workers=workers, **codec_kwargs)
        telemetry.incr("experiment.runs", len(fields))
        if verify:
            recons = map_decompress(blobs, workers=workers)
        else:
            recons = [None] * len(fields)
    runs = []
    for (dataset, field, data), blob, recon in zip(fields, blobs, recons):
        if recon is not None:
            quality = psnr(data, recon)
            err = max_abs_error(data, recon)
        else:
            quality = float("nan")
            err = float("nan")
        runs.append(CompressionRun(
            codec=codec, dataset=dataset, field=field, eb=eb,
            lossless=lossless, compressed_bytes=len(blob),
            n_elements=data.size, original_bytes=data.nbytes,
            psnr=quality, max_err=err))
    return runs


def scale_fields(scale: str) -> list[tuple[str, str]]:
    """(dataset, field) pairs to evaluate at a given scale.

    ``small``: one representative field per dataset; ``full``: every
    registered field of every dataset.
    """
    if scale == "small":
        return [("jhtdb", "u"), ("miranda", "density"),
                ("nyx", "baryon_density"), ("qmcpack", "einspline"),
                ("rtm", "snap1400"), ("s3d", "CO")]
    if scale == "full":
        pairs: list[tuple[str, str]] = []
        for ds in dataset_names():
            for fld in get_dataset(ds).fields:
                pairs.append((ds, fld))
        return pairs
    raise ConfigError(f"unknown scale {scale!r}; use 'small' or 'full'")


def format_table(headers: list[str], rows: list[list[str]],
                 title: str = "") -> str:
    """Plain-text table with aligned columns."""
    widths = [len(h) for h in headers]
    for row in rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines = []
    if title:
        lines.append(title)
    lines.append("  ".join(h.rjust(w) for h, w in zip(headers, widths)))
    lines.append("  ".join("-" * w for w in widths))
    for row in rows:
        lines.append("  ".join(c.rjust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)

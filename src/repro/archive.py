"""Multi-field archives.

Scientific snapshots are bundles of fields (Table II's datasets are 1-37
files each); this module packs many compressed fields into one
self-describing archive blob, each field independently decodable with its
own codec/settings — the unit the distributed-transfer case study ships.
"""

from __future__ import annotations

import numpy as np

from repro.common.container import build_container, parse_container
from repro.common.errors import ConfigError, ContainerError
from repro.registry import decompress_any  # noqa: F401  (re-export compat)
from repro.telemetry import recorder

__all__ = ["save_archive", "load_archive", "archive_info",
           "write_archive", "read_archive"]

_ARCHIVE_CODEC = "field-archive"


def save_archive(fields: dict[str, np.ndarray], codec: str = "cuszi",
                 per_field: dict[str, dict] | None = None,
                 workers: int | str | None = None,
                 **kwargs) -> bytes:
    """Compress a named set of fields into one archive blob.

    ``kwargs`` configure the codec for every field; ``per_field`` maps a
    field name to overrides (including ``"codec"``), e.g. compress a
    rough field with a different bound than the rest. Fields are
    independent archives, so ``workers`` fans them out across processes
    (:mod:`repro.runtime`) with byte-identical output.
    """
    if not fields:
        raise ConfigError("archive needs at least one field")
    from repro.runtime import map_compress, resolve_workers
    per_field = per_field or {}
    names = list(fields)
    overrides = [dict(per_field.get(name, {})) for name in names]
    codecs = [ov.pop("codec", codec) for name, ov in zip(names, overrides)]
    with recorder.capture("archive.save", n_fields=len(names),
                          workers=resolve_workers(workers)) as cap:
        with cap.stage("fields"):
            blobs = map_compress([fields[name] for name in names], codec,
                                 workers=workers,
                                 per_item=[{"codec": c, **ov}
                                           for c, ov in zip(codecs,
                                                            overrides)],
                                 **kwargs)
        segments = dict(zip(names, blobs))
        meta_fields = {}
        for name, field_codec, blob in zip(names, codecs, blobs):
            data = fields[name]
            meta_fields[name] = {
                "codec": field_codec,
                "shape": list(data.shape),
                "dtype": data.dtype.name,
                "raw_nbytes": int(data.nbytes),
                "compressed_nbytes": len(blob),
            }
        with cap.stage("container"):
            out = build_container(_ARCHIVE_CODEC, {"fields": meta_fields},
                                  segments)
        cap.set(bytes_in=sum(fields[n].nbytes for n in names),
                bytes_out=len(out))
    return out


def load_archive(blob: bytes,
                 fields: list[str] | None = None,
                 workers: int | str | None = None
                 ) -> dict[str, np.ndarray]:
    """Decompress (a subset of) an archive back into named arrays."""
    from repro.runtime import map_decompress, resolve_workers
    with recorder.capture("archive.load", bytes_in=len(blob),
                          workers=resolve_workers(workers)) as cap:
        with cap.stage("container"):
            codec, meta, segments = parse_container(blob)
        if codec != _ARCHIVE_CODEC:
            raise ContainerError(f"not a field archive (codec {codec!r})")
        wanted = fields if fields is not None else list(segments)
        for name in wanted:
            if name not in segments:
                raise ConfigError(f"archive has no field {name!r}; "
                                  f"contains {sorted(segments)}")
        with cap.stage("fields"):
            arrays = map_decompress([segments[name] for name in wanted],
                                    workers=workers)
        cap.set(n_fields=len(wanted),
                bytes_out=sum(a.nbytes for a in arrays))
    return dict(zip(wanted, arrays))


def archive_info(blob: bytes) -> dict:
    """Per-field metadata (codec, shape, sizes) without decompressing."""
    codec, meta, segments = parse_container(blob)
    if codec != _ARCHIVE_CODEC:
        raise ContainerError(f"not a field archive (codec {codec!r})")
    info = dict(meta["fields"])
    total_raw = sum(f["raw_nbytes"] for f in info.values())
    total_comp = sum(f["compressed_nbytes"] for f in info.values())
    return {"fields": info, "total_raw_nbytes": total_raw,
            "total_compressed_nbytes": total_comp,
            "ratio": total_raw / total_comp}


def write_archive(path: str, fields: dict[str, np.ndarray],
                  codec: str = "cuszi", **kwargs) -> None:
    """Save an archive to disk."""
    with open(path, "wb") as f:
        f.write(save_archive(fields, codec=codec, **kwargs))


def read_archive(path: str,
                 fields: list[str] | None = None,
                 workers: int | str | None = None
                 ) -> dict[str, np.ndarray]:
    """Load (a subset of) an archive from disk."""
    with open(path, "rb") as f:
        return load_archive(f.read(), fields, workers=workers)

"""repro.runtime — parallel batch engine for slab and field batches.

See :mod:`repro.runtime.pool` for the engine. Public surface:

* :func:`parallel_compress_slabs` / :func:`parallel_decompress_slabs` —
  shard one field into independent slabs and run them across workers,
  byte-identical to the serial :mod:`repro.streaming` path;
* :func:`map_compress` / :func:`map_decompress` — many-field batches;
* :func:`resolve_workers` — the shared ``workers=`` knob
  (``None`` = serial, ``"auto"`` = one worker per usable core);
* :func:`transport_stats` — cumulative bytes the pool moved through
  its shared-memory arenas (:mod:`repro.runtime.workers`, the one
  payload transport) and the rare result that spilled to the queue;
* :func:`tiled_compress_file` / :func:`tiled_decompress_file` — the
  out-of-core path (:mod:`repro.runtime.tiled`): memory-mapped input,
  bounded peak RSS, byte-identical ``RPST`` streams;
* :func:`shutdown_pools` — tear down the cached worker pools and
  unlink their shared-memory arenas.
"""

from repro.runtime.pool import (map_compress, map_decompress,
                                parallel_compress_slabs,
                                parallel_decompress_slabs,
                                resolve_workers, shutdown_pools,
                                transport_stats)
from repro.runtime.tiled import (resolve_tile_planes,
                                 tiled_compress_file,
                                 tiled_decompress_file)

__all__ = ["parallel_compress_slabs", "parallel_decompress_slabs",
           "map_compress", "map_decompress", "resolve_workers",
           "shutdown_pools", "transport_stats",
           "tiled_compress_file", "tiled_decompress_file",
           "resolve_tile_planes"]

"""Shared-memory slab arenas: the zero-copy transport substrate.

Pickling a slab out to a worker process and its blob back costs four
buffer copies plus two pipe traversals per payload. This module
provides the substrate that removes them: a named
``multiprocessing.shared_memory`` segment (an :class:`Arena`) that both
sides map once, so a payload crosses the process boundary as **one**
``memcpy`` into the arena and an ``(offset, length)`` pair in a tiny
control message. Nothing is pickled but control metadata. The worker
pool (:mod:`repro.runtime.workers`) moves every pooled payload this
way; where :func:`available` is false, pooled requests run serially.

Layout of one arena segment::

    +--------+------------------------------------------------------+
    | header |  data ...                                 (bump-grows) |
    +--------+------------------------------------------------------+
    0        64
    [0:8)  u64 cursor — next free offset, 64-byte aligned

* the **parent** owns every arena: it creates, grows and unlinks them
  (workers only ever attach);
* allocation is a bump cursor. The parent resets it between requests
  (requests are serialized by the pool), and workers reserving result
  space advance it under a cross-process lock;
* a reservation that does not fit returns ``None`` — callers degrade to
  shipping that one payload inline through the control queue, so a
  too-small arena is a throughput issue, never a correctness one.

Segment lifecycle is the dangerous part: an abnormally killed process
must not leave ``/dev/shm`` littered. Every created arena registers in a
module-level set that an ``atexit`` hook drains, and the pool
additionally unlinks arenas on worker-crash recovery (see
:mod:`repro.runtime.workers`).
"""

from __future__ import annotations

import atexit
import os
import struct
import threading

__all__ = ["Arena", "ArenaError", "available", "live_arena_names",
           "unlink_all", "HEADER_BYTES", "ALIGN", "NAME_PREFIX"]

try:
    from multiprocessing import shared_memory as _shm
except ImportError:  # pragma: no cover - ancient/exotic platform
    _shm = None

#: bytes reserved at the start of every segment for the bump cursor
HEADER_BYTES = 64
#: allocation granularity — keeps ndarray views cache-line aligned
ALIGN = 64
#: /dev/shm name prefix for every arena this process creates; the leak
#: test (and an operator's ``ls /dev/shm``) can spot ours at a glance
NAME_PREFIX = "repro-arena"

_CURSOR = struct.Struct("<Q")


class ArenaError(RuntimeError):
    """Shared-memory transport is unavailable or an arena op failed."""


def available() -> bool:
    """Can this platform back the shm transport at all?"""
    return _shm is not None


# -- leak protection ---------------------------------------------------------

_live_lock = threading.Lock()
_live: dict[str, "Arena"] = {}


def _track(arena: "Arena") -> None:
    with _live_lock:
        _live[arena.name] = arena


def _untrack(name: str) -> None:
    with _live_lock:
        _live.pop(name, None)


def live_arena_names() -> list[str]:
    """Names of every arena this process created and has not unlinked."""
    with _live_lock:
        return sorted(_live)


def unlink_all() -> None:
    """Unlink every still-live arena (the atexit safety net)."""
    with _live_lock:
        arenas = list(_live.values())
        _live.clear()
    for arena in arenas:
        arena.destroy(_untrack_self=False)


atexit.register(unlink_all)


def _reset_after_fork() -> None:
    # A forked child inherits the parent's tracked Arena objects (owner
    # flag included) — but the segments belong to the parent, and the
    # child's atexit must not unlink them out from under it.
    global _live_lock
    _live_lock = threading.Lock()
    _live.clear()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_reset_after_fork)


def _round_up(n: int, align: int = ALIGN) -> int:
    return (n + align - 1) // align * align


class Arena:
    """One named shared-memory segment with a bump allocator.

    Created by the parent (:meth:`create`), attached by workers
    (:meth:`attach`). The owner unlinks; attachers only close their
    mapping. All offsets handed out are :data:`ALIGN`-aligned and point
    past the header.
    """

    __slots__ = ("_seg", "name", "size", "owner")

    def __init__(self, seg, owner: bool):
        self._seg = seg
        self.name = seg.name
        self.size = seg.size
        self.owner = owner

    # -- lifecycle ----------------------------------------------------------

    @classmethod
    def create(cls, nbytes: int, tag: str = "a") -> "Arena":
        """Create (and own) a fresh segment of at least ``nbytes`` of
        usable data space."""
        if _shm is None:
            raise ArenaError("multiprocessing.shared_memory unavailable")
        total = _round_up(max(int(nbytes), ALIGN) + HEADER_BYTES)
        name = (f"{NAME_PREFIX}-{os.getpid()}-{tag}-"
                f"{os.urandom(4).hex()}")
        try:
            seg = _shm.SharedMemory(name=name, create=True, size=total)
        except OSError as exc:  # pragma: no cover - /dev/shm full, perms
            raise ArenaError(f"cannot create shm segment: {exc}") from exc
        arena = cls(seg, owner=True)
        arena.reset()
        _track(arena)
        return arena

    @classmethod
    def attach(cls, name: str) -> "Arena":
        """Map an existing segment (worker side; never unlinks)."""
        if _shm is None:
            raise ArenaError("multiprocessing.shared_memory unavailable")
        try:
            seg = _shm.SharedMemory(name=name)
        except (OSError, FileNotFoundError) as exc:
            raise ArenaError(f"cannot attach shm segment {name!r}: "
                             f"{exc}") from exc
        # NOTE: attaching re-registers the name with the resource
        # tracker, but pool workers inherit the *parent's* tracker
        # (fork and spawn both forward it), where registration is a
        # set-add — idempotent. Do not unregister here: that would
        # remove the parent's own registration from the shared tracker
        # and corrupt its cache when the parent later unlinks.
        return cls(seg, owner=False)

    def close(self) -> None:
        """Drop this process's mapping (the segment itself survives)."""
        try:
            self._seg.close()
        except (OSError, BufferError):  # pragma: no cover - exported view
            pass

    def destroy(self, _untrack_self: bool = True) -> None:
        """Close and — when owner — unlink the segment."""
        self.close()
        if self.owner:
            try:
                self._seg.unlink()
            except (OSError, FileNotFoundError):  # pragma: no cover
                pass                              # already gone
            if _untrack_self:
                _untrack(self.name)

    # -- allocation ---------------------------------------------------------

    @property
    def buf(self) -> memoryview:
        return self._seg.buf

    @property
    def data_bytes(self) -> int:
        """Usable data capacity (past the header)."""
        return self.size - HEADER_BYTES

    def reset(self) -> None:
        """Rewind the bump cursor (owner, between serialized requests)."""
        _CURSOR.pack_into(self._seg.buf, 0, HEADER_BYTES)

    def cursor(self) -> int:
        return _CURSOR.unpack_from(self._seg.buf, 0)[0]

    def reserve(self, nbytes: int, lock=None) -> int | None:
        """Reserve ``nbytes`` of arena space; returns the offset or
        ``None`` when the segment is full.

        ``lock`` (a ``multiprocessing.Lock``) guards the cursor when
        concurrent workers allocate from the same arena; the parent's
        serialized writes may pass ``None``.
        """
        need = _round_up(int(nbytes))
        if lock is not None:
            if not lock.acquire(timeout=10.0):  # pragma: no cover -
                raise ArenaError("arena cursor lock timed out")  # wedged
        try:
            off = self.cursor()
            if off + need > self.size:
                return None
            _CURSOR.pack_into(self._seg.buf, 0, off + need)
            return off
        finally:
            if lock is not None:
                lock.release()

    def write(self, data, lock=None) -> int | None:
        """Reserve space for and copy in one bytes-like payload."""
        view = memoryview(data).cast("B")
        off = self.reserve(view.nbytes, lock=lock)
        if off is None:
            return None
        self._seg.buf[off:off + view.nbytes] = view
        return off

    def view(self, offset: int, nbytes: int) -> memoryview:
        """Zero-copy window into the arena (valid until reset/close)."""
        return self._seg.buf[offset:offset + int(nbytes)]

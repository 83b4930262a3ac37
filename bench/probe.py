"""Host memory-bandwidth ceiling: a NumPy copy and triad probe.

Run in its own process (``python bench/probe.py``); prints one JSON
object. Each array is at least four times the last-level cache read from
sysfs, rounded up to a power of two, so neither kernel runs from cache.
Copy moves 2 bytes per array byte (read + write) and triad ``a += s * b``
moves 3 (two reads, one write); each reports the best of several passes.
"""

from __future__ import annotations

import glob
import json
import os
import time

import numpy as np

PASSES = 5
#: triad works through the arrays in L2-sized chunks, so its temporary
#: never leaves cache and only a and b stream from memory
TRIAD_CHUNK = 1 << 17


def llc_bytes() -> int:
    """Sum of the distinct last-level caches of the CPUs this process may
    run on, from ``/sys/devices/system/cpu``."""
    found: dict[str, tuple[int, int]] = {}
    for cpu in os.sched_getaffinity(0):
        for index in glob.glob(f"/sys/devices/system/cpu/cpu{cpu}/cache/"
                               "index*"):
            with open(f"{index}/level") as fp:
                level = int(fp.read())
            with open(f"{index}/size") as fp:
                size = fp.read().strip()
            with open(f"{index}/shared_cpu_list") as fp:
                shared = fp.read().strip()
            scale = {"K": 1 << 10, "M": 1 << 20, "G": 1 << 30}
            nbytes = (int(size[:-1]) * scale[size[-1]] if size[-1] in scale
                      else int(size))
            found[f"{level}:{shared}"] = (level, nbytes)
    if not found:
        raise OSError("no CPU cache sizes under /sys/devices/system/cpu")
    top = max(level for level, _ in found.values())
    return sum(n for level, n in found.values() if level == top)


def _best(fn) -> float:
    times = []
    for _ in range(PASSES):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return min(times)


def main() -> int:
    llc = llc_bytes()
    array_bytes = 1 << (4 * llc - 1).bit_length()
    n = array_bytes // 8
    a = np.ones(n)
    b = np.full(n, 2.0)
    copy_s = _best(lambda: np.copyto(a, b))
    tmp = np.empty(TRIAD_CHUNK)

    def triad():
        for i in range(0, n, TRIAD_CHUNK):
            j = min(i + TRIAD_CHUNK, n)
            np.multiply(b[i:j], 3.0, out=tmp[:j - i])
            np.add(a[i:j], tmp[:j - i], out=a[i:j])

    triad_s = _best(triad)
    print(json.dumps({"copy_gb_s": 2 * array_bytes / copy_s / 1e9,
                      "triad_gb_s": 3 * array_bytes / triad_s / 1e9,
                      "llc_mib": llc / (1 << 20),
                      "array_mib": array_bytes / (1 << 20)}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

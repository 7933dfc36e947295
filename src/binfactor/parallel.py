"""One executor for every parallel pass: score shards, inversion chunks, replications.

Work is cut into fixed, contiguous slices that depend only on its size,
never on the thread count, and each slice's call writes only its own
results.  So the outputs are bitwise the same at any number of threads.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor


def usable_cpus() -> int:
    """CPUs this process may run on: its affinity mask where the OS has one."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def map_slices(fn, n: int, size: int, threads: int = 1) -> list:
    """``[fn(s) for s in slices]``, with range(n) cut into slices of ``size``.

    The slices run on min(threads, number of slices) threads, or inline
    with no pool when that is 1; results come back in slice order.
    """
    if threads < 1:
        raise ValueError(f"threads must be at least 1, got {threads}")
    slices = [slice(i, min(i + size, n)) for i in range(0, n, size)]
    workers = min(threads, len(slices))
    if workers <= 1:
        return [fn(s) for s in slices]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, slices))

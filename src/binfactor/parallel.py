"""One executor for every parallel pass: score shards, inversion chunks, replications.

Work is cut into fixed, contiguous slices that depend only on its size,
never on the thread count, and each slice's call writes only its own
results.  So the outputs are bitwise the same at any number of threads.

While a pool of more than one worker runs, every OpenBLAS loaded in the
process is held to one thread: the workers' ``eigh``, matrix products and
batched solves then run on their own thread instead of each starting
OpenBLAS threads that compete with the other workers for the cores.  The
previous counts come back when the last overlapping pool ends.
"""

from __future__ import annotations

import ctypes
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from functools import lru_cache

# (get, set) thread-count symbols by build: plain OpenBLAS, the scipy-openblas
# wheels that numpy (64-bit ints) and scipy ship, and a 64-bit-int build.
_OPENBLAS_SYMBOLS = (
    ("openblas_get_num_threads", "openblas_set_num_threads"),
    ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
    ("scipy_openblas_get_num_threads", "scipy_openblas_set_num_threads"),
    ("openblas_get_num_threads64_", "openblas_set_num_threads64_"),
)


def usable_cpus() -> int:
    """CPUs this process may run on: its affinity mask where the OS has one."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def map_slices(fn, n: int, size: int, threads: int = 1) -> list:
    """``[fn(s) for s in slices]``, with range(n) cut into slices of ``size``.

    The slices run on min(threads, number of slices) threads, or inline
    with no pool when that is 1; results come back in slice order.  A pool
    runs under one BLAS thread (see the module docstring).
    """
    if threads < 1:
        raise ValueError(f"threads must be at least 1, got {threads}")
    slices = [slice(i, min(i + size, n)) for i in range(0, n, size)]
    workers = min(threads, len(slices))
    if workers <= 1:
        return [fn(s) for s in slices]
    with _one_blas_thread, ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, slices))


class _OneBlasThread:
    """Holds every loaded OpenBLAS to one thread while any pool is open.

    The first pool to enter saves the counts and sets 1; the last to leave
    restores them, also when a slice raised.  With no OpenBLAS it does
    nothing.  There is one per process, as the counts it guards are.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._depth = 0
        self._saved = []

    def __enter__(self):
        with self._lock:
            if self._depth == 0:
                self._saved = [(set_, get()) for get, set_ in _openblas_controls()]
                for set_, _ in self._saved:
                    set_(1)
            self._depth += 1

    def __exit__(self, *exc):
        with self._lock:
            self._depth -= 1
            if self._depth == 0:
                for set_, count in self._saved:
                    set_(count)
                self._saved = []
        return False


_one_blas_thread = _OneBlasThread()


def _openblas_controls() -> list:
    """(get, set) thread-count functions of every OpenBLAS loaded in the process."""
    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    except OSError:
        return []
    return [control for control in map(_openblas_control, libs) if control]


@lru_cache(maxsize=None)
def _openblas_control(lib: str):
    try:
        handle = ctypes.CDLL(lib)
    except OSError:
        return None
    for get_name, set_name in _OPENBLAS_SYMBOLS:
        get_count, set_count = getattr(handle, get_name, None), getattr(handle, set_name, None)
        if get_count is not None and set_count is not None:
            get_count.restype, get_count.argtypes = ctypes.c_int, ()
            set_count.restype, set_count.argtypes = None, (ctypes.c_int,)
            return get_count, set_count
    return None

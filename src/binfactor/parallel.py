"""One executor for every parallel pass: score shares, inversion chunks,
replications and the rows of the scores CSV.

Work is cut into contiguous slices and each slice's call returns its own
results.  The inversion chunks, replications and CSV rows are cut by the
work's size alone, never by the worker count.  The score shares are sized
by the worker count, one per worker, which is sound because a row's
scores depend only on its own data, not on the rows beside it.  So the
outputs are bitwise the same at any number of workers.

The workers are processes, so that the slices' Python code runs on every
core instead of taking turns for the interpreter lock.  Worker w runs
slices w, w + W, ...; the caller is worker 0, and each other worker is an
``os.fork()`` child that pickles its results back through a pipe and
leaves with ``os._exit``.  A fork is safe only while the process has one
thread, so workers start only from the main thread with no other Python
thread alive; otherwise, and where there is no ``os.fork``, the slices run
inline.  So at most one set of workers is open at a time.

No worker outlives ``map_slices``: the caller reaps every child it
forked, and kills them first when anything raises, ``KeyboardInterrupt``
included; where Linux allows it, the kernel kills a child whose caller
dies.

Before the fork every OpenBLAS loaded in the process is held to one
thread, and the children inherit that: the workers' ``eigh``, matrix
products and batched solves then run on their own thread instead of each
starting OpenBLAS threads that compete with the other workers for the
cores.  The caller's counts come back when the workers are done.
"""

from __future__ import annotations

import ctypes
import os
import pickle
import signal
import sys
import threading
from contextlib import contextmanager
from functools import lru_cache

# (get, set) thread-count symbols by build: plain OpenBLAS, the scipy-openblas
# wheels that numpy (64-bit ints) and scipy ship, and a 64-bit-int build.
_OPENBLAS_SYMBOLS = (
    ("openblas_get_num_threads", "openblas_set_num_threads"),
    ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
    ("scipy_openblas_get_num_threads", "scipy_openblas_set_num_threads"),
    ("openblas_get_num_threads64_", "openblas_set_num_threads64_"),
)

_PR_SET_PDEATHSIG = 1  # from <linux/prctl.h>


def usable_cpus() -> int:
    """CPUs this process may run on: its affinity mask where the OS has one."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def map_slices(fn, n: int, size: int, threads: int = 1) -> list:
    """``[fn(s) for s in slices]``, with range(n) cut into slices of ``size``.

    The slices run on min(threads, number of slices) worker processes, or
    inline when that is 1 or workers cannot start (see the module
    docstring); results come back in slice order, so each must pickle.  An
    exception raised by a slice is raised here; one that does not pickle
    comes back as a ``RuntimeError`` carrying its repr, and a worker that
    dies without a result raises a ``RuntimeError`` naming its exit status.
    """
    if threads < 1:
        raise ValueError(f"threads must be at least 1, got {threads}")
    slices = [slice(i, min(i + size, n)) for i in range(0, n, size)]
    workers = min(threads, len(slices))
    if workers <= 1 or not _can_fork():
        return [fn(s) for s in slices]
    with _one_blas_thread():
        return _run_workers(fn, slices, workers)


def _can_fork() -> bool:
    """Whether a fork is safe: the main thread calls, and no other thread is alive."""
    return (
        hasattr(os, "fork")
        and threading.current_thread() is threading.main_thread()
        and threading.active_count() == 1
    )


def _run_workers(fn, slices: list, workers: int) -> list:
    """Run ``slices`` on ``workers`` workers, the caller being worker 0."""
    parent, prctl = os.getpid(), _prctl()  # looked up once, before the forks
    pending = {}  # worker -> (pid, read end of its pipe), until it is reaped
    try:
        for w in range(1, workers):
            read_end, write_end = os.pipe()
            pid = os.fork()
            if pid == 0:
                _worker(fn, slices[w::workers], write_end, parent, prctl)
            pending[w] = (pid, os.fdopen(read_end, "rb"))
            os.close(write_end)
        results = [None] * len(slices)
        results[0::workers] = [fn(s) for s in slices[0::workers]]
        for w in range(1, workers):
            pid, pipe = pending[w]
            data = pipe.read()
            _, status = os.waitpid(pid, 0)
            del pending[w]
            pipe.close()
            results[w::workers] = _outcome(w, pid, data, status)
        return results
    finally:
        # Left here only when something raised.  A child not yet reaped
        # exists, if only as a zombie, so the signal cannot miss it.
        for pid, pipe in pending.values():
            pipe.close()
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)


def _worker(fn, slices: list, write_end: int, parent: int, prctl) -> None:
    """A forked worker: run ``slices``, pickle the outcome into the pipe, exit.

    It never returns, so no code of the caller's stack runs twice; the exit
    status is 0 once the outcome is written.
    """
    status = 1
    try:
        if prctl is not None:
            prctl(_PR_SET_PDEATHSIG, signal.SIGKILL)
        if os.getppid() != parent:  # the caller died before the signal was set
            return
        try:
            outcome = pickle.dumps((True, [fn(s) for s in slices]), pickle.HIGHEST_PROTOCOL)
        except BaseException as exc:  # sent to the caller, which raises it
            outcome = pickle.dumps((False, _portable(exc)), pickle.HIGHEST_PROTOCOL)
        with os.fdopen(write_end, "wb") as pipe:
            pipe.write(outcome)
        status = 0
    finally:
        os._exit(status)


def _outcome(w: int, pid: int, data: bytes, status: int) -> list:
    """Worker ``w``'s results from what it wrote; its exception, raised."""
    try:
        ok, payload = pickle.loads(data)
    except Exception:  # noqa: BLE001 - nothing written, or cut short
        raise RuntimeError(
            f"worker {w} (pid {pid}) ended without a result: {_exit_status(status)}"
        ) from None
    if not ok:
        raise payload
    return payload


def _portable(exc: BaseException) -> BaseException:
    """``exc`` if it survives a pickle round trip, else a RuntimeError with its repr."""
    try:
        pickle.loads(pickle.dumps(exc, pickle.HIGHEST_PROTOCOL))
    except Exception:  # noqa: BLE001 - any failure to pickle or unpickle
        return RuntimeError(f"a worker raised {exc!r}, which does not pickle")
    return exc


def _exit_status(status: int) -> str:
    code = os.waitstatus_to_exitcode(status)
    if code < 0:
        return f"killed by signal {-code} ({signal.strsignal(-code)})"
    return f"exit status {code}"


@lru_cache(maxsize=None)
def _prctl():
    """Linux's ``prctl``, or None where there is none."""
    if not sys.platform.startswith("linux"):
        return None
    try:
        prctl = ctypes.CDLL(None, use_errno=True).prctl
    except (OSError, AttributeError):
        return None
    prctl.restype, prctl.argtypes = ctypes.c_int, (ctypes.c_int, ctypes.c_ulong)
    return prctl


@contextmanager
def _one_blas_thread():
    """Holds every loaded OpenBLAS to one thread, and restores the counts after.

    They come back also when a slice raised.  With no OpenBLAS it does
    nothing.
    """
    saved = [(set_, get()) for get, set_ in _openblas_controls()]
    for set_, _ in saved:
        set_(1)
    try:
        yield
    finally:
        for set_, count in saved:
            set_(count)


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

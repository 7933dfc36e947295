"""Executor tests: slice layout, ordering, the workers it forks, that none
outlives a call, and the BLAS thread count its workers run under."""

import os
import pickle
import re
import signal
import subprocess
import sys
import threading
import time
import warnings
from pathlib import Path

import numpy as np
import pytest

from binfactor import gaussian, parallel
from binfactor.gaussian import bvn_upper_tail_batch, tetrachoric_invert_batch
from binfactor.parallel import map_slices, usable_cpus


@pytest.fixture(autouse=True)
def no_child_left():
    """After every test, no worker remains, running or unreaped."""
    yield
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture
def forks(monkeypatch):
    """The pids of the workers forked during the test, seen from the caller."""
    pids = []
    fork = os.fork

    def recording_fork():
        pid = fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", recording_fork)
    return pids


def pools(forks):
    """Worker counts of the calls that forked, for a test that makes one call:
    the caller is worker 0 and each fork adds one."""
    return [1 + len(forks)] if forks else []


def test_fixed_contiguous_slices_in_order():
    got = map_slices(lambda s: (s.start, s.stop), 10, 4, threads=3)
    assert got == [(0, 4), (4, 8), (8, 10)]


@pytest.mark.parametrize("n, size, threads, workers", [
    (10, 4, 2, [2]),
    (10, 4, 1_000_000, [3]),  # never more workers than slices
    (10, 4, 1, []),  # inline, no fork
    (3, 4, 8, []),  # one slice: inline
    (0, 4, 8, []),  # no work
])
def test_workers_requested(forks, n, size, threads, workers):
    slices = map_slices(lambda s: s, n, size, threads)
    assert len(slices) == -(-n // size)
    assert pools(forks) == workers


def test_replications_ask_for_at_most_one_thread_each(forks):
    from binfactor.simulate import SimScenario, run_replications

    records = run_replications(SimScenario(d=1, p=4, n=50, reps=2, seed=1), threads=64)
    assert len(records) == 2
    assert pools(forks) == [2]


def test_threads_below_one_rejected():
    with pytest.raises(ValueError, match="threads must be at least 1, got 0"):
        map_slices(lambda s: s, 10, 4, threads=0)


def test_usable_cpus_follows_the_affinity_mask(monkeypatch):
    # A process pinned to one CPU of a larger machine gets one thread.
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {3}, raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 64)
    assert usable_cpus() == 1
    # Without affinity masks, the CPU count, or 1 when it is unknown.
    monkeypatch.delattr(os, "sched_getaffinity")
    assert usable_cpus() == 64
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert usable_cpus() == 1


def test_stress_more_threads_than_cores(monkeypatch, forks):
    # Eight workers over 32 chunks on two cores: every chunk returns only
    # its own slice, so none of its results is lost or misplaced and the
    # inversion equals the serial one bit for bit.
    monkeypatch.setattr(gaussian, "_CHUNK_PAIRS", 64)
    rng = np.random.default_rng(5)
    c1, c2 = rng.uniform(-2.0, 2.0, (2, 2048))
    p = bvn_upper_tail_batch(c1, c2, rng.uniform(-0.95, 0.95, 2048))
    serial = tetrachoric_invert_batch(c1, c2, p)
    assert forks == []
    parallel_run = tetrachoric_invert_batch(c1, c2, p, threads=8)
    assert pools(forks) == [8]
    for a, b in zip(serial, parallel_run):
        np.testing.assert_array_equal(a, b)


def test_empty_batch_keeps_its_dtypes():
    rho, iterations, clamped = tetrachoric_invert_batch([], [], [], threads=2)
    assert (rho.dtype, iterations.dtype, clamped.dtype) == (float, np.int64, bool)
    assert rho.shape == iterations.shape == clamped.shape == (0,)


class StubBlas:
    """Stands in for one loaded OpenBLAS: a thread count behind get and set."""

    def __init__(self, count):
        self.count = count
        self.sets = []

    def get(self):
        return self.count

    def set(self, count):
        self.count = count
        self.sets.append(count)


@pytest.fixture
def blas(monkeypatch):
    stub = StubBlas(4)
    monkeypatch.setattr(parallel, "_openblas_controls", lambda: [(stub.get, stub.set)])
    return stub


def test_pool_workers_run_on_one_blas_thread(blas):
    assert map_slices(lambda s: blas.count, 4, 1, threads=2) == [1, 1, 1, 1]
    assert blas.count == 4
    assert blas.sets == [1, 4]


def test_blas_count_restored_when_a_slice_raises(blas):
    def fail_on_two(s):
        if s.start == 2:
            raise RuntimeError("slice 2")
        return blas.count

    with pytest.raises(RuntimeError, match="slice 2"):
        map_slices(fail_on_two, 4, 1, threads=2)
    assert blas.count == 4
    # The next call limits and restores again.
    assert map_slices(lambda s: blas.count, 2, 1, threads=2) == [1, 1]
    assert blas.count == 4


@pytest.mark.parametrize("n, size, threads", [(10, 4, 1), (3, 4, 8)])
def test_inline_runs_leave_blas_alone(blas, n, size, threads):
    assert map_slices(lambda s: blas.count, n, size, threads) == [4] * -(-n // size)
    assert blas.sets == []


def test_overlapping_pools_restore_the_original_count(blas, forks):
    # Workers fork only from the main thread with no other thread alive.
    # So two calls that overlap, B on another thread and A on the main
    # thread while B runs, both run inline: neither forks, and BLAS keeps
    # its original count throughout.
    b_open, a_done = threading.Event(), threading.Event()
    seen_in_b = []

    def slice_of_b(s):
        b_open.set()
        assert a_done.wait(10)
        return blas.count

    b = threading.Thread(target=lambda: seen_in_b.extend(map_slices(slice_of_b, 2, 1, 2)))
    b.start()
    try:
        assert b_open.wait(10)
        assert map_slices(lambda s: blas.count, 2, 1, threads=2) == [4, 4]
    finally:
        a_done.set()
        b.join(10)
    assert not b.is_alive()
    assert seen_in_b == [4, 4]
    assert blas.count == 4
    assert blas.sets == []
    assert forks == []


def test_loaded_openblas_held_and_restored():
    # The real libraries, where this numpy and scipy load an OpenBLAS.
    import scipy.linalg  # noqa: F401 - loads scipy's OpenBLAS as well

    controls = parallel._openblas_controls()
    if not controls:
        pytest.skip("no OpenBLAS loaded")
    before = [get() for get, _ in controls]
    inside = map_slices(lambda s: [get() for get, _ in controls], 2, 1, threads=2)
    assert inside == [[1] * len(controls)] * 2
    assert [get() for get, _ in controls] == before


def test_numpy_openblas_found_without_scipy():
    # The cap must find numpy's own OpenBLAS in a process that never loads
    # scipy, as the command line is; the test above loads scipy's as well.
    code = (
        "import sys, numpy, binfactor.parallel as p\n"
        "assert not [m for m in sys.modules if m.split('.')[0] == 'scipy']\n"
        "mapped = 'openblas' in open('/proc/self/maps').read().lower()\n"
        "controls = p._openblas_controls()\n"
        "inside = p.map_slices(lambda s: [get() for get, _ in controls], 2, 1, threads=2)\n"
        "print(mapped, len(controls), inside == [[1] * len(controls)] * 2)\n"
    )
    if not Path("/proc/self/maps").exists():
        pytest.skip("no /proc/self/maps")
    env = {**os.environ, "PYTHONPATH": str(Path(parallel.__file__).parents[1])}
    run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
    mapped, n_controls, held = run.stdout.split()
    if mapped == "False":
        pytest.skip("numpy loads no OpenBLAS")
    assert int(n_controls) >= 1 and held == "True"


def test_forking_warns_nothing():
    # Python 3.12 and later warn when a process with more than one thread
    # forks.  OpenBLAS's own threads stop at a fork (its atfork handler),
    # and the executor forks only with no other Python thread alive.  The
    # warning is recorded under "always"; under "error" the interpreter may
    # swallow it once the fork has happened, but any other warning raises.
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert map_slices(lambda s: s.start, 2, 1, threads=2) == [0, 1]
    assert [str(w.message) for w in caught] == []
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert map_slices(lambda s: s.start, 2, 1, threads=2) == [0, 1]


def test_results_come_back_in_slice_order_from_every_worker(forks):
    got = map_slices(lambda s: (os.getpid(), s.start), 7, 1, threads=3)
    assert [start for _, start in got] == list(range(7))
    # Worker w runs slices w, w + 3, ...; the caller is worker 0.
    assert [pid for pid, _ in got] == [os.getpid(), *forks] * 2 + [os.getpid()]


def test_slice_exception_raised_in_the_caller():
    def fail_in_worker_one(s):
        if s.start == 1:
            raise ValueError(f"slice {s.start} failed")
        return s.start

    with pytest.raises(ValueError, match="slice 1 failed"):
        map_slices(fail_in_worker_one, 4, 1, threads=2)


class TwoArgumentError(Exception):
    """Pickles, but does not unpickle: its constructor wants two arguments."""

    def __init__(self, a, b):
        super().__init__(f"{a} and {b}")


def test_exception_that_does_not_pickle_comes_back_as_its_repr():
    with pytest.raises(TypeError):
        pickle.loads(pickle.dumps(TwoArgumentError(1, 2)))

    def fail_in_worker_one(s):
        if s.start == 1:
            raise TwoArgumentError("this", "that")
        return s.start

    with pytest.raises(RuntimeError, match=re.escape("TwoArgumentError('this and that')")):
        map_slices(fail_in_worker_one, 2, 1, threads=2)


@pytest.mark.parametrize("end, status", [
    (lambda: os.kill(os.getpid(), signal.SIGKILL), "killed by signal 9 "),
    (lambda: os._exit(3), "exit status 3"),
    (lambda: os._exit(0), "exit status 0"),
])
def test_worker_that_dies_without_a_result(end, status):
    def die_in_worker_one(s):
        if s.start == 1:
            end()
        return s.start

    with pytest.raises(RuntimeError, match=r"worker 1 \(pid \d+\) ended without a result: "
                       + re.escape(status)):
        map_slices(die_in_worker_one, 2, 1, threads=2)


@pytest.mark.parametrize("interrupt", [KeyboardInterrupt, ValueError])
def test_caller_raising_kills_and_reaps_the_workers(forks, interrupt):
    # Worker 1 would sleep for a minute; worker 0, the caller, raises at
    # once, and the call ends without waiting for it.
    def slice_(s):
        if s.start == 0:
            raise interrupt("stop")
        time.sleep(60)

    start = time.monotonic()
    with pytest.raises(interrupt, match="stop"):
        map_slices(slice_, 2, 1, threads=2)
    assert time.monotonic() - start < 30
    assert len(forks) == 1
    with pytest.raises(ProcessLookupError):
        os.kill(forks[0], 0)


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="PR_SET_PDEATHSIG is Linux's")
def test_worker_dies_with_a_killed_caller():
    # The caller prints its worker's pid and sleeps inside its own slice;
    # SIGKILL gives it no chance to clean up, so the kernel must end the
    # worker.  A benchmark watchdog kills only the process it started.
    code = (
        "import os, sys, time\n"
        "from binfactor.parallel import map_slices\n"
        "def slice_(s):\n"
        "    if s.start == 1:\n"
        "        print(os.getpid(), flush=True)\n"
        "    time.sleep(60)\n"
        "map_slices(slice_, 2, 1, threads=2)\n"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(parallel.__file__).parents[1])}
    caller = subprocess.Popen([sys.executable, "-c", code], env=env,
                              stdout=subprocess.PIPE, text=True)
    try:
        worker = int(caller.stdout.readline())
    finally:
        caller.kill()
        caller.wait(10)
        caller.stdout.close()
    deadline = time.monotonic() + 10
    while _alive(worker) and time.monotonic() < deadline:
        time.sleep(0.01)
    assert not _alive(worker)


def _alive(pid):
    """Whether ``pid`` runs: a zombie waiting for its new parent to reap it has ended."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except (FileNotFoundError, ProcessLookupError):
        return False
    return stat.rsplit(")", 1)[1].split()[0] not in ("Z", "X")

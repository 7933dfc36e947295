"""Executor tests: slice layout, ordering, the worker count it asks for, and
the BLAS thread count its pools run under."""

import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

from binfactor import gaussian, parallel
from binfactor.gaussian import bvn_upper_tail_batch, tetrachoric_invert_batch
from binfactor.parallel import map_slices, usable_cpus


class RecordingPool:
    """Stands in for ThreadPoolExecutor: records max_workers, runs inline."""

    requested = []

    def __init__(self, max_workers):
        self.requested.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, items):
        return map(fn, items)


@pytest.fixture
def pool(monkeypatch):
    RecordingPool.requested = []
    monkeypatch.setattr(parallel, "ThreadPoolExecutor", RecordingPool)
    return RecordingPool


def test_fixed_contiguous_slices_in_order():
    got = map_slices(lambda s: (s.start, s.stop), 10, 4, threads=3)
    assert got == [(0, 4), (4, 8), (8, 10)]


@pytest.mark.parametrize("n, size, threads, workers", [
    (10, 4, 2, [2]),
    (10, 4, 1_000_000, [3]),  # never more threads than slices
    (10, 4, 1, []),  # inline, no pool
    (3, 4, 8, []),  # one slice: inline
    (0, 4, 8, []),  # no work
])
def test_workers_requested(pool, n, size, threads, workers):
    slices = map_slices(lambda s: s, n, size, threads)
    assert len(slices) == -(-n // size)
    assert pool.requested == workers


def test_replications_ask_for_at_most_one_thread_each(pool):
    from binfactor.simulate import SimScenario, run_replications

    records = run_replications(SimScenario(d=1, p=4, n=50, reps=2, seed=1), threads=64)
    assert len(records) == 2
    assert pool.requested == [2]


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


def test_stress_more_threads_than_cores(monkeypatch):
    # Eight threads over 32 chunks, switching every microsecond: every
    # chunk writes only its own slice, so none of its results is lost and
    # the inversion equals the serial one bit for bit.
    monkeypatch.setattr(gaussian, "_CHUNK_PAIRS", 64)
    rng = np.random.default_rng(5)
    c1, c2 = rng.uniform(-2.0, 2.0, (2, 2048))
    p = bvn_upper_tail_batch(c1, c2, rng.uniform(-0.95, 0.95, 2048))
    serial = tetrachoric_invert_batch(c1, c2, p)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threaded = tetrachoric_invert_batch(c1, c2, p, threads=8)
    finally:
        sys.setswitchinterval(interval)
    for a, b in zip(serial, threaded):
        np.testing.assert_array_equal(a, b)


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
    # The next pool limits and restores again.
    assert map_slices(lambda s: blas.count, 2, 1, threads=2) == [1, 1]
    assert blas.count == 4


@pytest.mark.parametrize("n, size, threads", [(10, 4, 1), (3, 4, 8)])
def test_inline_runs_leave_blas_alone(blas, n, size, threads):
    assert map_slices(lambda s: blas.count, n, size, threads) == [4] * -(-n // size)
    assert blas.sets == []


def test_overlapping_pools_restore_the_original_count(blas):
    # Pool A opens, pool B opens on another thread, A closes while B still
    # runs (the limit must hold), then B closes (the count comes back).
    a_open, b_open, a_closed = threading.Event(), threading.Event(), threading.Event()
    seen_in_b = []

    def slice_of_a(s):
        a_open.set()
        assert b_open.wait(10)
        return blas.count

    def slice_of_b(s):
        b_open.set()
        assert a_closed.wait(10)
        seen_in_b.append(blas.count)

    def run_b():
        assert a_open.wait(10)
        map_slices(slice_of_b, 2, 1, threads=2)

    b = threading.Thread(target=run_b)
    b.start()
    assert map_slices(slice_of_a, 2, 1, threads=2) == [1, 1]
    assert blas.count == 1
    a_closed.set()
    b.join(10)
    assert not b.is_alive()
    assert seen_in_b == [1, 1]
    assert blas.count == 4
    assert blas.sets == [1, 4]


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

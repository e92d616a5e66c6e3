"""The process's worker threads, shared by every stage that splits its work.

The FFT convolution (``fftconv``), the large GEMMs of ``autodiff`` and the
synthetic dataset (``data.synth_dataset``) hand ranges of their work to one
pool; the numpy calls inside them (pocketfft, BLAS, the random generators)
release the GIL, so the ranges run on all cores.  The pool owns the cores:
every ``Pool.run`` holds ``blas_on_caller``, so OpenBLAS adds no threads.
"""

from __future__ import annotations

import contextlib
import os
import queue
import threading


# numpy's OpenBLAS (get_num_threads, set_num_threads), () if absent, found on
# first use.  Its count is the process's: all threads' scopes share one depth.
_blas = None
_blas_depth = _blas_saved = 0
_blas_lock = threading.Lock()


def _find_blas() -> tuple:
    """The thread-count entry points of the OpenBLAS in numpy's wheel
    (``numpy.libs``) under the names scipy-openblas and older wheels export."""
    import ctypes
    from pathlib import Path

    import numpy as np

    for path in sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("*openblas*")):
        lib = ctypes.CDLL(str(path))
        for name in ("scipy_openblas_{}_num_threads64_", "openblas_{}_num_threads64_",
                     "openblas_{}_num_threads"):
            get, put = (getattr(lib, name.format(op), None) for op in ("get", "set"))
            if get and put:
                get.argtypes, get.restype = [], ctypes.c_int
                put.argtypes, put.restype = [ctypes.c_int], None
                return get, put
    return ()


@contextlib.contextmanager
def blas_on_caller():
    """Hold numpy's OpenBLAS at one thread, so that each BLAS call runs on the
    thread making it and no OpenBLAS worker spins against the pool's threads.
    Scopes nest, on one thread or many; the last to exit restores the count
    the first found.  Without an OpenBLAS entry point this does nothing."""
    global _blas, _blas_depth, _blas_saved
    with _blas_lock:
        if _blas is None:
            _blas = _find_blas()
        if _blas and _blas_depth == 0:
            _blas_saved = _blas[0]()
            _blas[1](1)
        _blas_depth += 1
    try:
        yield
    finally:
        with _blas_lock:
            _blas_depth -= 1
            if _blas and _blas_depth == 0:
                _blas[1](_blas_saved)


class Pool:
    """size - 1 daemon threads that, with the thread calling ``run``, share
    out the ranges of one stage.  A range is computed the same way whichever
    thread takes it, so results do not depend on the pool size.  ``run`` is
    not re-entrant: a task must not call ``run`` itself."""

    def __init__(self, size: int):
        self.size = size
        self.pid = os.getpid()
        self._jobs: queue.SimpleQueue = queue.SimpleQueue()
        self._threads = [threading.Thread(target=self._work, name="tisergcn-pool", daemon=True)
                         for _ in range(size - 1)]
        for t in self._threads:
            t.start()

    def _work(self) -> None:
        while (job := self._jobs.get()) is not None:
            job()
            # the job holds the stage's arrays: drop it before waiting for the
            # next, or they outlive the stage (24 MB more in use after a
            # default training step)
            del job

    @blas_on_caller()
    def run(self, fn, n: int, grain: int) -> None:
        """fn(lo, hi) for each range [lo, lo + grain) of range(n).  The calling
        thread and up to size - 1 pool threads take ranges in turn until none
        is left, so a thread that starts late leaves its share to the others.
        A task's error is raised here once every thread has stopped."""
        ranges = iter(range(0, n, grain))  # next() is atomic under the GIL
        done: queue.SimpleQueue = queue.SimpleQueue()  # one outcome per helper

        def drain():
            for lo in ranges:
                fn(lo, min(lo + grain, n))

        def helper():
            try:
                drain()
            except BaseException as exc:  # raised again on the calling thread
                done.put(exc)
            else:
                done.put(None)

        helpers = min(self.size, -(-n // grain)) - 1
        for _ in range(helpers):
            self._jobs.put(helper)
        try:
            drain()
        finally:
            outcomes = [done.get() for _ in range(helpers)]
        for exc in outcomes:
            if exc is not None:
                raise exc

    def close(self) -> None:
        """Stop the threads; later runs take every range on the calling thread."""
        self.size = 1
        for _ in self._threads:
            self._jobs.put(None)
        for t in self._threads:
            t.join()


_pool: Pool | None = None
_pool_lock = threading.Lock()


def get_pool() -> Pool:
    """The process's pool, one thread per usable core, made on first use
    (and made again in a forked child, whose copy has no threads)."""
    global _pool
    with _pool_lock:
        if _pool is None or _pool.pid != os.getpid():
            cores = os.sched_getaffinity(0) if hasattr(os, "sched_getaffinity") else None
            _pool = Pool(len(cores) if cores else os.cpu_count() or 1)
        return _pool

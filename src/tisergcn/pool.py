"""The process's worker threads, shared by every stage that splits its work.

The FFT convolution (``fftconv``) and the synthetic dataset
(``data.synth_dataset``) hand ranges of their work to one pool; the numpy
calls inside them (pocketfft, BLAS, the random generators) release the GIL,
so the ranges run on all cores.  Both import this module on first use.
"""

from __future__ import annotations

import os
import queue
import threading


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

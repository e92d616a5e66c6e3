"""The shared worker pool: every range runs once, on any pool size, a task's
error reaches the caller, and a forked child gets a pool of its own.  The
BLAS scope holds OpenBLAS at one thread and restores its count."""

import os
import sys
import threading
import time
import weakref

import pytest

from tisergcn import pool as pool_module
from tisergcn.pool import Pool


class TestPool:
    def test_pool_runs_every_range_once_under_contention(self):
        # more threads than cores and a short switch interval: a range lost
        # or taken twice by the shared iterator shows in the multiset
        pool = Pool(4)
        interval = sys.getswitchinterval()
        seen = []
        try:
            sys.setswitchinterval(1e-6)
            for _ in range(20):
                seen.clear()
                pool.run(lambda lo, hi: seen.append((lo, hi)), 101, 3)
                assert sorted(seen) == [(lo, min(lo + 3, 101)) for lo in range(0, 101, 3)]
        finally:
            sys.setswitchinterval(interval)
            pool.close()

    def test_pool_raises_a_task_error(self):
        pool = Pool(2)

        def fail(lo, hi):
            if lo == 4:
                raise ValueError("task 4")

        try:
            with pytest.raises(ValueError, match="task 4"):
                pool.run(fail, 8, 1)
        finally:
            pool.close()

    @pytest.mark.parametrize("size", [1, 2, 3])
    def test_usable_after_a_task_error(self, size):
        pool = Pool(size)
        seen = []
        try:
            for failing in range(6):
                def task(lo, hi):
                    if lo == failing:
                        raise ValueError(f"task {lo}")
                    seen.append(lo)

                with pytest.raises(ValueError, match=f"task {failing}"):
                    pool.run(task, 6, 1)
            seen.clear()
            pool.run(lambda lo, hi: seen.append(lo), 6, 1)
            assert sorted(seen) == list(range(6))
        finally:
            pool.close()

    def test_finished_tasks_are_dropped(self):
        # a pool thread must not keep the last task, and the arrays it holds,
        # alive while it waits for the next
        def make_task():
            held = type("Held", (), {})()
            return weakref.ref(held), lambda lo, hi: held

        pool = Pool(3)
        try:
            ref, task = make_task()
            pool.run(task, 6, 1)
            del task
            deadline = time.monotonic() + 10.0
            while ref() is not None and time.monotonic() < deadline:
                time.sleep(0.01)
            assert ref() is None
        finally:
            pool.close()

    def test_forked_child_gets_a_fresh_pool(self, monkeypatch):
        first = pool_module.get_pool()
        assert pool_module.get_pool() is first
        monkeypatch.setattr(first, "pid", os.getpid() + 1)  # as a child sees it
        fresh = pool_module.get_pool()
        try:
            assert fresh is not first and fresh.pid == os.getpid()
            seen = []
            fresh.run(lambda lo, hi: seen.append(lo), 5, 2)
            assert sorted(seen) == [0, 2, 4]
        finally:
            fresh.close()
            pool_module._pool = first


class TestBlasOnCaller:
    def test_nested_scopes_restore_the_count(self, blas_at_two):
        get = blas_at_two
        with pool_module.blas_on_caller():
            assert get() == 1
            with pool_module.blas_on_caller():
                assert get() == 1
            assert get() == 1
        assert get() == 2
        with pytest.raises(ValueError):
            with pool_module.blas_on_caller():
                raise ValueError("inside")
        assert get() == 2

    def test_threads_enter_and_exit_under_contention(self, blas_at_two):
        # more threads than cores and a short switch interval: a lost update
        # of the shared depth leaves the count at 1, or restores 2 while
        # another thread is still inside
        get = blas_at_two
        inside, errors = [], []

        def enter_and_exit():
            try:
                for _ in range(200):
                    with pool_module.blas_on_caller():
                        inside.append(get())
            except BaseException as exc:
                errors.append(exc)

        threads = [threading.Thread(target=enter_and_exit, daemon=True) for _ in range(8)]
        interval = sys.getswitchinterval()
        try:
            sys.setswitchinterval(1e-6)
            for t in threads:
                t.start()
            for t in threads:
                t.join(60.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert errors == []
        assert len(inside) == 8 * 200 and set(inside) == {1}
        assert get() == 2

    @pytest.mark.parametrize("size", [1, 2, 3])
    def test_pool_tasks_run_blas_on_their_thread(self, blas_at_two, size):
        get = blas_at_two
        pool = Pool(size)
        seen = []
        try:
            pool.run(lambda lo, hi: seen.append(get()), 6, 1)
        finally:
            pool.close()
        assert seen == [1] * 6
        assert get() == 2

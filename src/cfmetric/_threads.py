"""The thread pool that the bulk sampler and the operator build share.

One pool serves the process.  It is made on the first call that needs two
threads or more (not at import), grows when a call asks for more workers
than it has, and is made again in a child forked after it exists, whose
copy of it has no threads.  A call made on one of its threads runs inline,
so work that maps again from inside the pool cannot wait on itself.
"""

from __future__ import annotations

import os
import threading

_lock = threading.Lock()  # guards _pool, and each call's submissions
_pool = None  # (executor, its thread count), made on first use
_on_pool = threading.local()  # .marked is True on the pool's own threads


def _forget() -> None:
    """In a forked child: drop the parent's pool, whose threads did not come
    along, and the lock, which another thread may have held at the fork."""
    global _lock, _pool
    _lock, _pool = threading.Lock(), None


if hasattr(os, "register_at_fork"):  # where os.fork exists
    os.register_at_fork(after_in_child=_forget)


def cpus() -> int:
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # not on every platform
        return os.cpu_count() or 1


def _mark() -> None:
    _on_pool.marked = True


def _executor(workers: int):
    """The shared executor, made or replaced by one of at least `workers`
    threads if need be; called with _lock held."""
    global _pool
    if _pool is None or _pool[1] < workers:
        # imported on first use, not with the package: about 10 ms of import
        from concurrent.futures import ThreadPoolExecutor

        if _pool is not None:
            _pool[0].shutdown(wait=False)  # its queued calls still run
        _pool = (ThreadPoolExecutor(workers, "cfmetric", _mark), workers)
    return _pool[0]


def thread_map(fn, workers: int, *iterables) -> list:
    """list(map(fn, *iterables)), with at most `workers` calls at once.

    Worker k makes calls k, k + workers, k + 2 workers, ... in turn, on the
    shared pool; with one worker, one call, or on a pool thread, the calls
    run inline.  The work must release the interpreter lock (numpy does) to
    overlap.  When a call fails, no worker starts another call, and once
    every running call has returned, the error of the first failed call (in
    the order of the calls) is re-raised."""
    calls = list(zip(*iterables))
    workers = min(workers, len(calls))
    if workers <= 1 or getattr(_on_pool, "marked", False):
        return [fn(*args) for args in calls]
    results = [None] * len(calls)
    errors = [None] * len(calls)
    failed = threading.Event()

    def stripe(k: int) -> None:
        for i in range(k, len(calls), workers):
            if failed.is_set():
                return
            try:
                results[i] = fn(*calls[i])
            except BaseException as exc:  # handed to the caller below
                errors[i] = exc
                failed.set()
                return

    with _lock:
        pool = _executor(workers)
        futures = [pool.submit(stripe, k) for k in range(workers)]
    for future in futures:
        future.result()  # a stripe returns once its calls are done
    for exc in errors:
        if exc is not None:
            raise exc
    return results

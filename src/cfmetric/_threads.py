"""The thread pool that the bulk sampler and the operator build share, and
the one rule that cuts their work over the CPUs.

One pool of cpus() threads serves the process, made on the first map that
needs threads (not at import) and again in a child forked after it exists.
Each call of a map is one task on it, so at most cpus() calls run at once
across every caller.  A map made on a pool thread runs inline, so work that
maps again from inside the pool cannot wait on itself.  spans() cuts a range
of items into the equal contiguous spans that a caller maps, one call per
span; it is the only reader of cpus() outside the pool itself.
"""

from __future__ import annotations

import os
import threading

_lock = threading.Lock()  # guards _pool
_pool = None  # the executor, made on first use
_on_pool = threading.local()  # .marked is True on the pool's own threads


def _forget() -> None:
    """In a forked child: drop the parent's pool, whose threads did not come
    along, and the lock, which another thread may have held at the fork."""
    global _lock, _pool
    _lock, _pool = threading.Lock(), None


if hasattr(os, "register_at_fork"):  # where os.fork exists
    os.register_at_fork(after_in_child=_forget)


def cpus() -> int:
    """CPUs this process may run on, counted whether or not other work keeps
    them busy: the count does not fall while a neighbour loads one.  The bulk
    sampler's measured cost of that (two workers against one with the other
    CPU busy) is in the comment on sampler._MIN_BLOCK."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # not on every platform
        return os.cpu_count() or 1


def spans(n: int, least: int = 1, most: int | None = None) -> list[int]:
    """The bounds b of equal contiguous spans of range(n): span k is
    range(b[k], b[k + 1]), and the lengths differ by at most one.

    The count is the smallest multiple of w = max(1, min(cpus(), n // least))
    that keeps each span at most most long (w itself when most is None), so
    no more than one CPU is kept busy per least items.  When w < cpus() and
    most >= 2 least, the count is w itself, as n < least (w + 1) <= most w:
    at most w spans, so at most w threads run.  For n >= 1 and most >= 2 (or
    None) the count is at most n, so no span is empty."""
    w = max(1, min(cpus(), n // least))
    count = w if most is None else w * -(-n // (most * w))
    return [n * k // count for k in range(count + 1)]


def _mark() -> None:
    _on_pool.marked = True


def thread_map(fn, *iterables) -> list:
    """list(map(fn, *iterables)), each call a task on the shared pool.

    With one call, one CPU, or on a pool thread, the calls run inline.  The
    work must release the interpreter lock (numpy does) to overlap.  When a
    call fails, the calls not yet started are cancelled, and once no call of
    this map is running, the error of the first failed call (in the order of
    the calls) is re-raised."""
    global _pool
    calls = list(zip(*iterables))
    if len(calls) <= 1 or cpus() <= 1 or getattr(_on_pool, "marked", False):
        return [fn(*args) for args in calls]
    with _lock:
        if _pool is None:
            # imported on first use, not with the package: about 10 ms of import
            from concurrent.futures import ThreadPoolExecutor

            _pool = ThreadPoolExecutor(cpus(), "cfmetric", _mark)
        futures = [_pool.submit(fn, *args) for args in calls]
    try:
        return [future.result() for future in futures]  # in the order of the calls
    except BaseException:
        from concurrent.futures import wait

        for future in futures:
            future.cancel()  # only a call not yet started
        wait(futures)
        raise

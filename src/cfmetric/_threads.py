"""The thread pool that the bulk sampler and the operator build share."""

from __future__ import annotations

import os


def cpus() -> int:
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # not on every platform
        return os.cpu_count() or 1


def thread_map(fn, workers: int, *iterables) -> list:
    """list(map(fn, *iterables)) on a pool of `workers` threads.

    The work must release the interpreter lock (numpy does) to overlap.
    Every result is read, so the first failed call's error is re-raised."""
    # imported on first use, not with the package: about 10 ms of import
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(workers) as pool:
        return list(pool.map(fn, *iterables))

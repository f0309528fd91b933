import os
import subprocess
import sys
import textwrap
import threading
import time
from pathlib import Path

import pytest

from cfmetric import _threads
from cfmetric._threads import thread_map


@pytest.fixture
def fresh_pool(monkeypatch):
    """No shared pool at the start; the pools the test makes are shut down
    after it, and the pool from before it is put back."""
    monkeypatch.setattr(_threads, "_pool", None)
    yield
    if _threads._pool is not None:
        _threads._pool[0].shutdown(wait=True)


def test_results_in_call_order():
    assert thread_map(lambda a, b: a * b, 3, range(7), range(10, 17)) == [
        a * b for a, b in zip(range(7), range(10, 17))]
    assert thread_map(lambda a: a, 2, []) == []


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_at_most_workers_calls_at_once(fresh_pool, workers):
    thread_map(lambda k: k, 4, range(4))  # a pool of 4 threads, more than asked for
    lock = threading.Lock()
    active = peak = 0

    def call(k):
        nonlocal active, peak
        with lock:
            active += 1
            peak = max(peak, active)
        time.sleep(0.005)
        with lock:
            active -= 1
        return k

    assert thread_map(call, workers, range(12)) == list(range(12))
    assert 1 <= peak <= workers


def test_pool_grows_for_more_workers(fresh_pool):
    thread_map(lambda k: k, 2, range(2))
    assert _threads._pool[1] == 2
    # each call waits for the other two, so they return only if three run at once
    barrier = threading.Barrier(3, timeout=30)
    assert thread_map(lambda k: barrier.wait() >= 0 and k, 3, range(3)) == [0, 1, 2]
    assert _threads._pool[1] == 3


def test_call_from_a_pool_thread_runs_inline(fresh_pool):
    # a map inside a mapped call would wait on the pool's own threads; it runs
    # on the calling thread instead
    def outer(k):
        me = threading.get_ident()
        return thread_map(lambda j: threading.get_ident() == me, 2, range(4))

    got = []
    caller = threading.Thread(target=lambda: got.extend(thread_map(outer, 2, range(2))))
    caller.start()
    caller.join(timeout=60)
    assert not caller.is_alive()
    assert got == [[True] * 4] * 2


def test_failed_call_waits_for_running_calls(fresh_pool):
    finished = []

    def call(k):
        if k == 1:
            raise ValueError("call 1 failed")
        time.sleep(0.05)
        finished.append(k)

    with pytest.raises(ValueError, match="call 1"):
        thread_map(call, 2, range(2))
    assert finished == [0]


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_forked_child_builds_its_own_pool():
    # in a subprocess, so that no warning about forking a process with
    # threads reaches this session; the child's map is bounded by a timeout
    script = textwrap.dedent("""
        import os, threading
        from cfmetric import _threads
        from cfmetric._threads import thread_map

        assert thread_map(lambda k: k * k, 2, range(6)) == [0, 1, 4, 9, 16, 25]
        before = _threads._pool[0]
        pid = os.fork()
        if pid == 0:
            got = []
            t = threading.Thread(target=lambda: got.extend(thread_map(lambda k: k + 1, 2, range(6))))
            t.start()
            t.join(timeout=60)
            ok = not t.is_alive() and got == [1, 2, 3, 4, 5, 6] and _threads._pool[0] is not before
            os._exit(0 if ok else 1)
        _, status = os.waitpid(pid, 0)
        raise SystemExit(os.waitstatus_to_exitcode(status))
    """)
    env = dict(os.environ, PYTHONPATH=str(Path(_threads.__file__).resolve().parents[1]))
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_concurrent_callers_share_the_pool(fresh_pool):
    # more callers and workers than cores, asking for pools of different
    # sizes while the interpreter switches threads often: each caller still
    # gets every one of its own results
    got = {}

    def caller(c):
        got[c] = thread_map(lambda k: (c, k), 2 + c % 3, range(40))

    callers = [threading.Thread(target=caller, args=(c,)) for c in range(6)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for t in callers:
            t.start()
        for t in callers:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in callers)
    assert got == {c: [(c, k) for k in range(40)] for c in range(6)}

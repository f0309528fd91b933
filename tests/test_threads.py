import os
import subprocess
import sys
import textwrap
import threading
import time
from pathlib import Path

import pytest

from cfmetric import _threads
from cfmetric._threads import spans, thread_map


def test_results_in_call_order(cpus):
    cpus(3)
    assert thread_map(lambda a, b: a * b, range(7), range(10, 17)) == [
        a * b for a, b in zip(range(7), range(10, 17))]
    assert thread_map(lambda a: a, []) == []


@pytest.mark.parametrize("n", [1, 2, 3])
def test_at_most_cpus_calls_at_once(cpus, n):
    cpus(n)
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

    assert thread_map(call, range(12)) == list(range(12))
    assert 1 <= peak <= n


def test_call_from_a_pool_thread_runs_inline(cpus):
    # a map inside a mapped call would wait on the pool's own threads; it runs
    # on the calling thread instead
    cpus(2)

    def outer(k):
        me = threading.get_ident()
        return thread_map(lambda j: threading.get_ident() == me, range(4))

    got = []
    caller = threading.Thread(target=lambda: got.extend(thread_map(outer, range(2))))
    caller.start()
    caller.join(timeout=60)
    assert not caller.is_alive()
    assert got == [[True] * 4] * 2


def test_failed_call_waits_for_running_calls(cpus):
    cpus(2)
    finished = []

    def call(k):
        if k == 1:
            raise ValueError("call 1 failed")
        time.sleep(0.05)
        finished.append(k)

    with pytest.raises(ValueError, match="call 1"):
        thread_map(call, range(2))
    assert finished == [0]


def test_failed_call_cancels_calls_not_started(cpus):
    # call 0 fails at once, and the caller cancels the queued calls well within
    # call 1's 0.1 s: of the 8 calls, at most calls 0 to 3 ever start
    cpus(2)
    lock = threading.Lock()
    started, running = [], set()

    def call(k):
        with lock:
            started.append(k)
            running.add(k)
        try:
            if k == 0:
                raise ValueError("call 0 failed")
            time.sleep(0.1)
        finally:
            with lock:
                running.discard(k)

    with pytest.raises(ValueError, match="call 0"):
        thread_map(call, range(8))
    assert not running
    assert 0 in started and len(started) <= 4


def test_first_failed_call_in_call_order_is_raised(cpus):
    # call 1 fails first in time, call 0 first in the order of the calls
    cpus(2)

    def call(k):
        if k == 0:
            time.sleep(0.05)
        raise ValueError(f"call {k} failed")

    with pytest.raises(ValueError, match="call 0"):
        thread_map(call, range(2))


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_forked_child_builds_its_own_pool():
    # in a subprocess, so that no warning about forking a process with
    # threads reaches this session; the child's map is bounded by a timeout
    script = textwrap.dedent("""
        import os, threading
        from cfmetric import _threads
        from cfmetric._threads import thread_map

        _threads.cpus = lambda: 2  # threads, whatever the host has
        assert thread_map(lambda k: k * k, range(6)) == [0, 1, 4, 9, 16, 25]
        before = _threads._pool
        pid = os.fork()
        if pid == 0:
            got = []
            t = threading.Thread(target=lambda: got.extend(thread_map(lambda k: k + 1, range(6))))
            t.start()
            t.join(timeout=60)
            ok = not t.is_alive() and got == [1, 2, 3, 4, 5, 6] and _threads._pool is not before
            os._exit(0 if ok else 1)
        _, status = os.waitpid(pid, 0)
        raise SystemExit(os.waitstatus_to_exitcode(status))
    """)
    env = dict(os.environ, PYTHONPATH=str(Path(_threads.__file__).resolve().parents[1]))
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_concurrent_callers_share_the_pool(cpus):
    # more callers than threads, while the interpreter switches threads
    # often: each caller still gets every one of its own results
    cpus(3)
    got = {}

    def caller(c):
        got[c] = thread_map(lambda k: (c, k), range(40))

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


def test_spans_cut_as_each_caller_did(cpus):
    # the operator rows (least 1, no most) and the sampler blocks (8192 and
    # 32768, and the 4 and 16 that TestBlocks patches in), against the split
    # each caller made itself before spans: contiguous, none empty, at most
    # most long, and a multiple of w in number
    cases = ([(n, 1, None) for n in range(2, 200)]
             + [(n, 4, 16) for n in range(1, 200)]
             + [(n, 8192, 32768) for n in (*range(1, 70_000, 37), 10**5, 10**6, 10**7)])
    for c in range(1, 9):
        cpus(c)
        for n, least, most in cases:
            b = spans(n, least, most)
            lengths = [hi - lo for lo, hi in zip(b, b[1:])]
            w = max(1, min(c, n // least))
            assert b[0] == 0 and b[-1] == n and min(lengths) >= 1
            assert max(lengths) - min(lengths) <= 1 and len(lengths) % w == 0
            if most is None:  # the operator build's rows
                want = [n * k // min(c, n) for k in range(min(c, n) + 1)]
            else:  # sample_digit_matrix's blocks
                assert max(lengths) <= most
                count = w * -(-n // (most * w))
                want = [n * k // count for k in range(count + 1)]
            assert b == want, (c, n, least, most)


def test_cpus_falls_back_to_cpu_count(monkeypatch):
    # os.sched_getaffinity is missing on some platforms (macOS, Windows)
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 5)
    assert _threads.cpus() == 5
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert _threads.cpus() == 1

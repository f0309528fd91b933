import pytest

from cfmetric import _threads


@pytest.fixture
def cpus(monkeypatch):
    """cpus(n) makes the shared pool and spans() see n CPUs, whatever the
    host has.  The test starts with no shared pool, so its first map makes
    one of n threads; that pool is shut down after the test, and the pool
    from before it is put back."""
    monkeypatch.setattr(_threads, "_pool", None)

    def set_cpus(n: int) -> None:
        monkeypatch.setattr(_threads, "cpus", lambda: n)

    yield set_cpus
    if _threads._pool is not None:
        _threads._pool.shutdown(wait=True)

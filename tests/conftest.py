from concurrent.futures import ThreadPoolExecutor

import pytest

from entharvest import sweep as sweep_mod


@pytest.fixture
def real_pools(monkeypatch) -> list:
    """max_workers of every thread pool a grid starts."""
    sizes = []

    class RecordedPool(ThreadPoolExecutor):
        def __init__(self, max_workers):
            sizes.append(max_workers)
            super().__init__(max_workers=max_workers)

    monkeypatch.setattr(sweep_mod, "ThreadPoolExecutor", RecordedPool)
    return sizes


@pytest.fixture
def eight_cpus(monkeypatch) -> None:
    """Eight CPUs that this process may run on (sweep._usable_workers),
    whatever the host has."""
    monkeypatch.setattr(sweep_mod.os, "sched_getaffinity", lambda pid: set(range(8)), raising=False)


@pytest.fixture
def one_pair_per_worker(monkeypatch, eight_cpus) -> None:
    """One pair of work enough for a worker, and eight usable CPUs, so that a
    small test grid at workers > 1 still runs on a pool of that many threads
    (sweep._pool_size)."""
    monkeypatch.setattr(sweep_mod, "_PAIRS_PER_WORKER", 1)

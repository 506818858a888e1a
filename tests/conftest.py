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
def one_pair_per_worker(monkeypatch) -> None:
    """One pair of work enough for a worker, so that a small test grid at
    workers > 1 still runs on a pool of that many threads (sweep._pool_size)."""
    monkeypatch.setattr(sweep_mod, "_PAIRS_PER_WORKER", 1)

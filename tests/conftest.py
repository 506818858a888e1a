from concurrent.futures import ProcessPoolExecutor

import pytest

from entharvest import sweep as sweep_mod


@pytest.fixture
def real_pools(monkeypatch) -> list:
    """max_workers of every real process pool a grid starts, with one pair of
    work enough for a worker, so that a small test grid at workers > 1 still
    runs on a pool of that many processes (sweep._pool_size)."""
    sizes = []

    class RecordedPool(ProcessPoolExecutor):
        def __init__(self, max_workers):
            sizes.append(max_workers)
            super().__init__(max_workers=max_workers)

    monkeypatch.setattr(sweep_mod, "_PAIRS_PER_WORKER", 1)
    monkeypatch.setattr(sweep_mod, "ProcessPoolExecutor", RecordedPool)
    return sizes

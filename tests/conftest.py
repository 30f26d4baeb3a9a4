import concurrent.futures

import pytest

from ftstack import harness


@pytest.fixture
def pooled(monkeypatch):
    """A host that reports at least two CPUs, so a ``jobs=2`` run takes the
    process pool whatever the real CPU count; yields the size of each pool
    started, for the test to check that one was."""
    real_count, real_pool = harness.os.cpu_count, concurrent.futures.ProcessPoolExecutor
    sizes = []

    def recorded_pool(max_workers):
        sizes.append(max_workers)
        return real_pool(max_workers=max_workers)

    monkeypatch.setattr(harness.os, "cpu_count", lambda: max(2, real_count() or 1))
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", recorded_pool)
    return sizes

"""Fixtures shared by the package's tests."""

import gc
import tracemalloc

import pytest


def _traced_peak(call):
    """(current, peak) bytes traced while ``call()`` runs, after a full collection.

    ``current`` is read as the call returns, so it counts what the call
    left alive: a result the call stores somewhere, not one it returns.
    """
    gc.collect()
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()


@pytest.fixture
def traced_peak():
    """The tests' one ``tracemalloc`` harness: :func:`_traced_peak`."""
    return _traced_peak

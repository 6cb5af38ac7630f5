"""Fixtures shared by the test modules."""

import tracemalloc

import pytest


def _traced_peak(call):
    """Peak bytes traced while ``call()`` runs, above those live when it starts."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        call()
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


@pytest.fixture
def traced_peak():
    """The function ``traced_peak(call)``: the traced allocation peak of ``call()``."""
    return _traced_peak

import tracemalloc

import pytest


def _peak_bytes(fn):
    """``(fn(), peak)``: what ``fn`` returns and the peak of the memory
    traced while it ran, in bytes."""
    tracemalloc.start()
    try:
        value = fn()
        return value, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.fixture
def peak_bytes():
    """The memory tests' one ``tracemalloc`` harness: ``peak_bytes(fn)``
    returns ``(fn(), peak)``."""
    return _peak_bytes

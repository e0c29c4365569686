"""Shared fixtures."""

import tracemalloc

import pytest

from uzawa_transport import network as net


def _peak_bytes(fn):
    """Peak bytes of ``fn``: its traced peak plus the kernel workspace it
    leaves live, if it built that one.  Workspace buffers are memory
    mappings, which ``tracemalloc`` does not see; each workspace records
    their size.  Only one workspace is live at a time, so if ``fn`` built
    any, the one it leaves live is new."""
    before = list(net._SLOTS.values())
    tracemalloc.start()
    try:
        fn()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    built = [ws for ws in net._SLOTS.values() if not any(ws is old for old in before)]
    return peak + sum(ws.nbytes for ws in built)


@pytest.fixture
def peak_bytes():
    """``peak_bytes(fn)``: the traced peak of ``fn`` plus the bytes of the
    kernel workspace it built."""
    return _peak_bytes

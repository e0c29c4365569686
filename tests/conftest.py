"""Shared fixtures.

Every BLAS pool is pinned to one thread before anything imports numpy, as
``--threads 1`` pins a run's: the bit-for-bit tests compare against
one-thread GEMV and GEMM results, which more threads may round otherwise.
Child processes inherit the pin, and import the package from this tree's
``src``, as the tests do.
"""

import os
import tracemalloc

import pytest

from uzawa_transport.cli import _THREAD_VARS  # the CLI module loads no numpy

os.environ.update(dict.fromkeys(_THREAD_VARS, "1"))
_SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
os.environ["PYTHONPATH"] = os.pathsep.join(p for p in (_SRC, os.environ.get("PYTHONPATH")) if p)

from uzawa_transport import network as net  # noqa: E402


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

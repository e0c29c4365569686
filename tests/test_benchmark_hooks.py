"""The benchmark's tracer still finds every solver function it wraps."""

import os
import subprocess
import sys

PERFBENCH = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "perfbench")


def test_tracer_installs_on_the_package():
    # the tracer wraps module and class attributes by name; a deleted or
    # renamed one fails here as well as in the benchmark's own smoke run.
    # A subprocess, because installing replaces attributes of the package.
    code = (
        "import sys; sys.path.insert(0, sys.argv[1])\n"
        "import uzawa_transport as pkg\n"
        "from tracer import Tracer\n"
        "Tracer().install(pkg)\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", code, PERFBENCH], capture_output=True, text=True, timeout=120
    )
    assert out.returncode == 0, out.stderr

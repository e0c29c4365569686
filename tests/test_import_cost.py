"""A run loads scipy, numpy.random, numpy.polynomial and the oracle only
where a function it calls needs them."""

import json
import os
import subprocess
import sys

SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src")

SMALL = {
    "uzawa.n_outer": 1,
    "uzawa.n_inner": 2,
    "quadrature.n_spatial": 4,
    "quadrature.n_angular": 6,
    "quadrature.n_boundary_pos": 3,
    "quadrature.n_boundary_ang": 3,
    "lagrangian.batch_interior": 8,
    "network.widths": (4, 8, 1),
    "outputs.grid_n": 5,
}

# a subprocess, because this test process has imported all of these already
_PRELUDE = (
    "import contextlib, io, json, os, sys\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "def loaded(*names):\n"
    "    return sorted(n for n in names if n in sys.modules)\n"
)
# numpy 1.x imports numpy.random and numpy.polynomial with numpy itself;
# what the package loads is what a run adds to that
_EAGER = "import numpy\nEAGER = loaded('numpy.random', 'numpy.polynomial')\n"


def _child(code, *args):
    """The JSON value a fresh interpreter prints last when it runs ``code``."""
    out = subprocess.run(
        [sys.executable, "-c", _PRELUDE + code, SRC, *args],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert out.returncode == 0, out.stderr
    return json.loads(out.stdout.splitlines()[-1])


def test_tanh_run_and_oracle_load_no_scipy(tmp_path):
    code = _EAGER + (
        "from uzawa_transport import cli, presets\n"
        "small, out = json.loads(sys.argv[2]), sys.argv[3]\n"
        "def scipy_modules():\n"
        "    return sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')\n"
        "tanh = presets.expand_preset('example3-forward', small)\n"
        "tanh_code, _ = cli.run_experiment(tanh, os.path.join(out, 'tanh'))\n"
        "run_loaded = sorted(set(loaded('numpy.polynomial', 'uzawa_transport.linear_oracle')) - set(EAGER))\n"
        "from uzawa_transport import kinetic_ops, linear_oracle\n"
        "checks = linear_oracle.verification_suite(n_iter=2)\n"
        "before = scipy_modules()\n"
        "mu = kinetic_ops.angular_eigenvalue(1, kinetic_ops.forward_peaked_kernel(0.1), 1.0)\n"
        "print(json.dumps([tanh_code, run_loaded, len(checks), before, mu, scipy_modules()]))\n"
    )
    tanh_code, run_loaded, n_checks, before, mu, after = _child(code, json.dumps(SMALL), tmp_path.as_posix())
    assert tanh_code == 0 and n_checks == 14
    # a training run builds its Gauss rules without numpy.polynomial
    assert run_loaded == []
    assert before == []
    # the Bessel ratio of the forward-peaked kernel loads scipy.special on demand
    assert 0.0 < mu < 1.0
    assert "scipy.special" in after


def test_verify_loads_no_numpy_random_or_polynomial(tmp_path):
    # config validation draws no network, the oracle's datum is a literal,
    # and the Gauss rules are phase_space's own
    code = _EAGER + (
        "from uzawa_transport import cli\n"
        "buf = io.StringIO()\n"
        "with contextlib.redirect_stdout(buf):\n"
        "    code = cli.main(['verify', '--out', sys.argv[2]])\n"
        "passed = sum(line.startswith('[PASS] ') for line in buf.getvalue().splitlines())\n"
        "added = set(loaded('numpy.random', 'numpy.polynomial')) - set(EAGER)\n"
        "print(json.dumps([code, passed, sorted(added)]))\n"
    )
    code, passed, added = _child(code, tmp_path.as_posix())
    assert code == 0 and passed == 14
    assert added == []


def test_list_presets_loads_no_numpy():
    code = (
        "from uzawa_transport import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    code = cli.main(['list-presets'])\n"
        "print(json.dumps([code, loaded('numpy')]))\n"
    )
    assert _child(code) == [0, []]

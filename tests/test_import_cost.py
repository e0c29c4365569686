"""A run loads scipy only where a function it calls needs it."""

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


def test_tanh_run_and_oracle_load_no_scipy(tmp_path):
    # a subprocess, because this test process has imported scipy already
    code = (
        "import json, os, sys\n"
        "sys.path.insert(0, sys.argv[1])\n"
        "from uzawa_transport import cli, linear_oracle, presets\n"
        "small, out = json.loads(sys.argv[2]), sys.argv[3]\n"
        "def scipy_modules():\n"
        "    return sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')\n"
        "tanh = presets.expand_preset('example3-forward', {**small, 'network.activation': 'tanh'})\n"
        "tanh_code, _ = cli.run_experiment(tanh, os.path.join(out, 'tanh'))\n"
        "checks = linear_oracle.verification_suite(n_iter=2)\n"
        "before_gelu = scipy_modules()\n"
        "gelu = presets.expand_preset('example1', {**small, 'network.activation': 'gelu'})\n"
        "gelu_code, _ = cli.run_experiment(gelu, os.path.join(out, 'gelu'))\n"
        "print(json.dumps([tanh_code, len(checks), before_gelu, gelu_code, scipy_modules()]))\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", code, SRC, json.dumps(SMALL), tmp_path.as_posix()],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert out.returncode == 0, out.stderr
    tanh_code, n_checks, before_gelu, gelu_code, after_gelu = json.loads(out.stdout.splitlines()[-1])
    assert tanh_code == 0 and n_checks == 14
    assert before_gelu == []
    assert gelu_code == 0
    assert "scipy.special" in after_gelu
    with open(tmp_path / "gelu" / "metrics.csv") as fh:
        rows = fh.read().strip().splitlines()[1:]
    assert len(rows) == 2

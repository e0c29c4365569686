"""The benchmark's hooks into the package: the names its tracer wraps and
the API one measured run calls."""

import json
import os
import subprocess
import sys

import pytest

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


@pytest.mark.parametrize("workload", ["absorb-tensor", "scatter-tensor", "mc-manufactured", "oracle-verify"])
def test_benchmark_child_run_passes_its_gates(tmp_path, workload):
    # one untraced run calls the package API the benchmark drives directly
    # (flatten/unflatten, subsample, assemble and assemble_with_gradient in
    # its finite-difference gate); scatter-tensor puts the K x K scattering
    # seeds of each tile under that gate; mc-manufactured adds discrete_norms,
    # the per-step redraws and the costly full-set pass; oracle-verify runs
    # the 14 identity checks on the oracle's Grams
    child = os.path.join(PERFBENCH, "child.py")
    args = ["--workload", workload, "--seed", "0", "--out", tmp_path.as_posix()]
    out = subprocess.run([sys.executable, child, *args], capture_output=True, text=True, timeout=300)
    assert out.returncode == 0, out.stderr
    gates = json.loads(out.stdout.strip().splitlines()[-1])["gates"]
    assert gates and all(gates.values()), gates


def test_traced_oracle_run_times_its_identity_checks(tmp_path):
    # the tracer times the gap functions by replacing the module attributes;
    # a suite that stopped calling them through the module would read 0 here
    child = os.path.join(PERFBENCH, "child.py")
    spans = (tmp_path / "spans.json").as_posix()
    args = ["--workload", "oracle-verify", "--seed", "0", "--out", tmp_path.as_posix(), "--trace", spans]
    out = subprocess.run([sys.executable, child, *args], capture_output=True, text=True, timeout=300)
    assert out.returncode == 0, out.stderr
    layers = json.loads(out.stdout.strip().splitlines()[-1])["layers"]
    assert layers["linear_oracle.checks_passed"][0] == 14
    assert layers["linear_oracle.identity_checks.ms"][0] > 0
    assert layers["linear_oracle.run_uzawa_oracle.ms"][0] > 0


def test_traced_training_run_times_its_quadrature_and_assembly(tmp_path):
    # the tracer times the quadrature rules, the assembly and the inflow by
    # replacing the module and class attributes; a call that stopped going
    # through them would read 0 here
    child = os.path.join(PERFBENCH, "child.py")
    out_dir, spans = tmp_path / "out", (tmp_path / "spans.json").as_posix()
    out_dir.mkdir()
    args = ["--workload", "mc-manufactured", "--seed", "0", "--out", out_dir.as_posix(), "--trace", spans]
    out = subprocess.run([sys.executable, child, *args], capture_output=True, text=True, timeout=300)
    assert out.returncode == 0, out.stderr
    layers = json.loads(out.stdout.strip().splitlines()[-1])["layers"]
    assert layers["uzawa.inner_step_ms.n"][0] == 200
    for name in (
        "phase_space.build_quadrature.ms",
        "phase_space.mc_interior.self_ms",
        "lagrangian.subsample.self_ms",
        "lagrangian.assemble_with_gradient.self_ms",
        "lagrangian.assemble.ms_per_outer",
        "kinetic_ops.inflow.calls",
    ):
        assert layers[name][0] > 0, name

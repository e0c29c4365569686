"""Config parsing/validation, preset expansion, CLI behavior."""

import json
import os
import subprocess
import sys

import numpy as np
import pytest

from uzawa_transport import cli
from uzawa_transport import config as cm
from uzawa_transport import presets, uzawa
from uzawa_transport.errors import ConfigError

CLI = [sys.executable, "-m", "uzawa_transport"]

FAST_OVERRIDES = {
    "uzawa.n_outer": "2",
    "uzawa.n_inner": "10",
    "quadrature.n_spatial": "4",
    "quadrature.n_angular": "6",
    "quadrature.n_boundary_pos": "3",
    "quadrature.n_boundary_ang": "3",
    "lagrangian.batch_interior": "8",
    "network.widths": "4,8,1",
    "outputs.grid_n": "5",
}


def test_defaults_validate():
    cfg = cm.from_flat({})
    assert cfg.mode == "train"
    assert cfg["uzawa.rho"] == 1.0


def test_unknown_key_rejected():
    with pytest.raises(ConfigError) as err:
        cm.from_flat({"uzawa.momentum": "0.9"})
    assert "unknown configuration key" in str(err.value)


def test_all_violations_reported_together():
    with pytest.raises(ConfigError) as err:
        cm.from_flat({"uzawa.rho": "-1", "lagrangian.gamma": "-2", "bogus.key": "1"})
    text = str(err.value)
    assert "bogus.key" in text
    # semantic checks still run on the known keys
    with pytest.raises(ConfigError) as err2:
        cm.from_flat({"uzawa.rho": "-1", "lagrangian.gamma": "-2"})
    text2 = str(err2.value)
    assert "rho" in text2 and "gamma" in text2


@pytest.mark.parametrize(
    "key, raw",
    [
        ("uzawa.n_outer", 2.7),
        ("uzawa.n_outer", True),
        ("uzawa.n_outer", float("inf")),
        ("uzawa.n_outer", "2.7"),
        ("network.widths", [4.9, 8.2, 1]),
        ("network.widths", [4, True, 1]),
    ],
    ids=["float", "bool", "inf", "decimal-string", "float-list", "bool-in-list"],
)
def test_integer_keys_reject_non_integral_values(key, raw):
    # what a JSON manifest fed to ``run`` can hold
    with pytest.raises(ConfigError) as err:
        cm.from_flat({key: raw})
    assert str(err.value).startswith(f"{key}: cannot parse")


def test_integer_keys_accept_integral_values():
    cfg = cm.from_flat({"uzawa.n_outer": 3.0, "uzawa.n_inner": "7", "network.widths": [4, 8.0, 1]})
    assert (cfg["uzawa.n_outer"], cfg["uzawa.n_inner"], cfg["network.widths"]) == (3, 7, (4, 8, 1))


def test_negative_rho_message_names_constraint():
    with pytest.raises(ConfigError) as err:
        cm.from_flat({"uzawa.rho": "-0.5"})
    assert "rho > 0" in str(err.value)


def test_parse_config_file_with_line_numbers(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("uzawa.rho = 1.0\nthis line has no equals\n")
    with pytest.raises(ConfigError) as err:
        cm.parse_config(path.as_posix())
    assert ":2:" in str(err.value)


def test_parse_config_roundtrip(tmp_path):
    cfg = presets.expand_preset("example5")
    path = tmp_path / "exp.cfg"
    lines = [f"{k} = {v}" for k, v in cfg.to_flat().items()]
    path.write_text("\n".join(lines) + "\n# trailing comment\n")
    again = cm.parse_config(path.as_posix())
    assert again == cfg


def test_preset_expansion_pure():
    a = presets.expand_preset("example2")
    b = presets.expand_preset("example2")
    assert a == b and a is not b


def test_preset_example2_obstacle_values():
    cfg = presets.expand_preset("example2")
    assert cfg["problem.sigma_a.kind"] == "ball-obstacle"
    assert cfg["problem.sigma_a.inside"] == 50.0
    assert cfg["problem.sigma_a.radius"] == 0.15
    assert cfg["problem.sigma_a.center"] == (0.5, 0.5)


def test_preset_example3_forward_values():
    cfg = presets.expand_preset("example3-forward")
    assert cfg["problem.sigma_a.value"] == 0.1
    assert cfg["problem.sigma_t"] == 9.9
    assert cfg["problem.kernel.kind"] == "forward-peaked"
    assert cfg["problem.inflow.kind"] == "constant"
    assert cfg["problem.inflow.value"] == 1.0
    problem, _ = cm.build_problem(cfg)
    g = problem.data.inflow(cm.build_quadrature_set(cfg).boundary)
    assert np.all(g == 1.0)


def test_preset_list_contains_exactly_eight():
    assert len(presets.PRESETS) == 8
    text = presets.list_presets_text()
    assert text == presets.list_presets_text()  # stable
    lines = text.splitlines()
    assert len(lines) == 8
    for line in lines:
        assert ("experiment" in line) or ("verification" in line)


def test_unknown_preset_rejected():
    with pytest.raises(ConfigError):
        presets.expand_preset("example99")


def test_manufactured_problem_consistency():
    # residual of the exact solution under the derived source is zero
    from uzawa_transport import kinetic_ops as ko

    cfg = presets.expand_preset("manufactured", overrides={"problem.sigma_t": "1.0"})
    problem, reference = cm.build_problem(cfg)
    quad = cm.build_quadrature_set(cfg)
    x = quad.interior.x[:50]
    theta = quad.interior.theta[:50]
    u = reference.value(x, theta)
    du = reference.directional(x, theta)
    # angle-independent solution: scattering contributes nothing
    resid = du + (problem.sigma_a(x) + problem.sigma_t) * u - problem.sigma_t * u
    resid -= problem.data.source(x, theta)
    assert np.abs(resid).max() <= 1e-12


def test_build_quadrature_and_network_from_config():
    cfg = cm.from_flat(FAST_OVERRIDES)
    quad = cm.build_quadrature_set(cfg)
    assert len(quad.angular) == 6
    params = cm.build_network(cfg)
    assert params.widths == (4, 8, 1)


# -- CLI ------------------------------------------------------------------------


def _run_cli(args, cwd=None, env=None):
    full_env = dict(os.environ)
    if env:
        full_env.update(env)
    return subprocess.run(
        CLI + args, capture_output=True, text=True, cwd=cwd, env=full_env, timeout=600
    )


def test_cli_list_presets():
    out = _run_cli(["list-presets"])
    assert out.returncode == 0
    assert len(out.stdout.strip().splitlines()) == 8
    assert "oracle-verify" in out.stdout


def test_cli_config_error_exit_code(tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text("uzawa.rho = -3\n")
    out = _run_cli(["run", bad.as_posix()])
    assert out.returncode == 2
    assert "rho" in out.stderr


MALFORMED_MANIFESTS = {
    "not-json": "{not json",
    "no-config": '{"version": "0.1.0", "wall_clock": 1.0}',
    "no-version": '{"config": {"uzawa.rho": 1}}',
    "not-an-object": "[1, 2]",
    "missing": None,
}


@pytest.mark.parametrize("name", MALFORMED_MANIFESTS)
def test_cli_malformed_manifest_exit_code(tmp_path, name):
    path = tmp_path / f"{name}.json"
    if MALFORMED_MANIFESTS[name] is not None:
        path.write_text(MALFORMED_MANIFESTS[name])
    out = _run_cli(["run", path.as_posix(), "--out", (tmp_path / "out").as_posix()])
    assert out.returncode == 2, out.stderr
    assert "configuration error" in out.stderr and path.name in out.stderr
    assert "Traceback" not in out.stderr


def test_cli_unknown_preset_exit_code():
    out = _run_cli(["preset", "nope"])
    assert out.returncode == 2


def test_cli_preset_run_emits_outputs(tmp_path):
    args = ["preset", "manufactured", "--out", tmp_path.as_posix(), "--threads", "1"]
    for key, value in FAST_OVERRIDES.items():
        args += ["--override", f"{key}={value}"]
    out = _run_cli(args)
    assert out.returncode == 0, out.stderr
    for name in ("manifest.json", "metrics.csv", "params.uzmlp", "flux.csv"):
        assert (tmp_path / name).exists()
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert "l2_error_rel" in manifest["final_metrics"]
    assert manifest["config"]["preset"] == "manufactured"


def test_cli_manifest_rerun_reproduces_metrics(tmp_path):
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    args = ["preset", "example5", "--out", out_a.as_posix(), "--threads", "1"]
    for key, value in FAST_OVERRIDES.items():
        args += ["--override", f"{key}={value}"]
    first = _run_cli(args)
    assert first.returncode == 0, first.stderr
    second = _run_cli(
        ["run", (out_a / "manifest.json").as_posix(), "--out", out_b.as_posix(), "--threads", "1"]
    )
    assert second.returncode == 0, second.stderr
    assert (out_a / "metrics.csv").read_bytes() == (out_b / "metrics.csv").read_bytes()


def test_cli_env_var_output_dir(tmp_path):
    args = ["preset", "example1", "--threads", "1"]
    for key, value in FAST_OVERRIDES.items():
        args += ["--override", f"{key}={value}"]
    out = _run_cli(args, env={"UZAWA_TRANSPORT_OUT": tmp_path.as_posix()})
    assert out.returncode == 0, out.stderr
    assert (tmp_path / "example1" / "metrics.csv").exists()


def test_cli_verify_exit_zero(tmp_path):
    out = _run_cli(["verify", "--out", tmp_path.as_posix()])
    assert out.returncode == 0, out.stdout + out.stderr
    assert out.stdout.count("[PASS]") >= 10
    assert "[FAIL]" not in out.stdout


@pytest.mark.parametrize(
    "overrides, key",
    [
        ({"problem.sigma_a.value": "-1"}, "problem.sigma_a.value"),
        ({"problem.sigma_a.kind": "ball-obstacle", "problem.sigma_a.inside": "-2"}, "problem.sigma_a.inside"),
        ({"problem.sigma_a.kind": "split-plane", "problem.sigma_a.right": "-0.5"}, "problem.sigma_a.right"),
    ],
)
def test_negative_absorption_rejected(overrides, key):
    with pytest.raises(ConfigError) as err:
        cm.from_flat(overrides)
    assert key in str(err.value)
    # fields the selected kind does not read are not checked
    cm.from_flat({"problem.sigma_a.kind": "split-plane", "problem.sigma_a.value": "-1"})


def test_cli_negative_absorption_exit_code():
    out = _run_cli(["preset", "example1", "--override", "problem.sigma_a.value=-1"])
    assert out.returncode == 2, out.stderr
    assert "problem.sigma_a.value" in out.stderr
    assert "Traceback" not in out.stderr


@pytest.mark.parametrize("key", ["problem.sigma_a.radius", "problem.source.radius"])
def test_cli_negative_radius_exit_code(key):
    args = ["preset", "example2", "--override", f"{key}=-0.15"]
    for name, value in FAST_OVERRIDES.items():
        args += ["--override", f"{name}={value}"]
    out = _run_cli(args)
    assert out.returncode == 2, out.stderr
    assert key in out.stderr
    assert "Traceback" not in out.stderr


@pytest.mark.parametrize(
    "key, value",
    [
        ("uzawa.rho", "nan"),
        ("uzawa.learning_rate", "nan"),
        ("problem.sigma_t", "inf"),
        ("problem.sigma_a.center", "nan,0.5"),
        ("uzawa.beta1", "1"),
        ("uzawa.beta2", "1.5"),
        ("uzawa.eps_adam", "-1"),
        ("outputs.grids", "angular-slice:nan"),
        ("outputs.grids", "angular-slice:inf"),
    ],
)
def test_cli_bad_float_exit_code(key, value):
    args = ["preset", "example1", "--override", f"{key}={value}"]
    for name, fast in FAST_OVERRIDES.items():
        args += ["--override", f"{name}={fast}"]
    out = _run_cli(args)
    assert out.returncode == 2, out.stderr
    assert key in out.stderr
    assert "Traceback" not in out.stderr


def test_cli_sharp_kernel_on_loose_samples_runs_finite(tmp_path):
    # kernel rows at sample directions far narrower than the node spacing
    overrides = {
        **FAST_OVERRIDES,
        "quadrature.scheme": "monte-carlo",
        "quadrature.n_interior": "64",
        "quadrature.n_boundary": "16",
        "problem.kernel.epsilon": "1e-6",
    }
    args = ["preset", "example3-forward", "--out", tmp_path.as_posix(), "--threads", "1"]
    for key, value in overrides.items():
        args += ["--override", f"{key}={value}"]
    out = _run_cli(args)
    assert out.returncode == 0, out.stderr
    rows = (tmp_path / "metrics.csv").read_text().strip().splitlines()[1:]
    assert np.isfinite([float(v) for row in rows for v in row.split(",")]).all()


def _run_aborting(tmp_path, overrides):
    """A fast example1 run that must end in exit 3 with only the named abort
    on stderr; returns its ``aborted`` term, read from a strictly valid manifest."""
    args = ["preset", "example1", "--out", tmp_path.as_posix()]
    for key, value in {**FAST_OVERRIDES, **overrides}.items():
        args += ["--override", f"{key}={value}"]
    out = _run_cli(args)
    assert out.returncode == 3, out.stderr
    assert out.stderr.startswith("numerical abort: ") and out.stderr.count("\n") == 1, out.stderr
    assert "RuntimeWarning" not in out.stderr

    def refuse(constant):
        raise ValueError(f"manifest holds {constant}, which is not JSON")

    manifest = json.loads((tmp_path / "manifest.json").read_text(), parse_constant=refuse)
    return manifest["final_metrics"]["aborted"]


@pytest.mark.parametrize(
    "learning_rate, term",
    [("1e308", "parameters after the optimizer step"), ("1e200", "loss part 'pde'")],
    ids=["1e308", "1e200"],
)
def test_cli_optimizer_overflow_exit_code(tmp_path, learning_rate, term):
    # 1e308 overflows the optimizer update, 1e200 the next step's assembly
    assert term in _run_aborting(tmp_path, {"uzawa.learning_rate": learning_rate})


def test_cli_non_finite_outer_record_exit_code(tmp_path):
    # finite multiplier values whose boundary norm overflows
    aborted = _run_aborting(tmp_path, {"uzawa.rho": "1e308", "uzawa.n_outer": "1"})
    assert aborted == "non-finite multiplier norm at outer step 0"


def test_cli_failed_verification_exit_code(tmp_path, monkeypatch, capsys):
    from uzawa_transport import linear_oracle

    checks = [("identity that holds", True, ""), ("identity that fails", False, "residual 1.0e+00")]
    monkeypatch.setattr(linear_oracle, "verification_suite", lambda n_iter: checks)
    assert cli.main(["verify", "--out", tmp_path.as_posix()]) == 1
    out = capsys.readouterr().out
    assert "[PASS] identity that holds" in out
    assert "[FAIL] identity that fails (residual 1.0e+00)" in out
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["final_metrics"]["checks_passed"] is False


def test_cli_input_width_three_exit_code():
    args = ["preset", "example1"]
    for key, value in {**FAST_OVERRIDES, "network.widths": "3,8,1"}.items():
        args += ["--override", f"{key}={value}"]
    out = _run_cli(args)
    assert out.returncode == 2, out.stderr
    assert "network.widths" in out.stderr and "input width must be 4" in out.stderr
    assert "Traceback" not in out.stderr


def test_cli_out_is_a_file_exits_before_the_solve(tmp_path, monkeypatch):
    target = tmp_path / "taken"
    target.write_text("keep")
    args = ["preset", "example1", "--out", target.as_posix()]
    for key, value in FAST_OVERRIDES.items():
        args += ["--override", f"{key}={value}"]
    out = _run_cli(args)
    assert out.returncode == 4, out.stderr
    assert "i/o error" in out.stderr
    assert "Traceback" not in out.stderr
    assert target.read_text() == "keep"

    def solve(*_, **__):
        raise AssertionError("the solve ran before the output directory was checked")

    monkeypatch.setattr(uzawa, "run", solve)
    with pytest.raises(OSError):
        cli.run_experiment(cm.from_flat(FAST_OVERRIDES), target.as_posix())


def test_cli_override_rejects_bad_shape():
    out = _run_cli(["preset", "example1", "--override", "uzawa.rho"])
    assert out.returncode == 2

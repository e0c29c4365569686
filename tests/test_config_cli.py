"""Config parsing/validation, preset expansion, CLI behavior."""

import csv
import dataclasses
import errno
import inspect
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

from uzawa_transport import cli
from uzawa_transport import config as cm
from uzawa_transport import lagrangian, phase_space, presets, uzawa
from uzawa_transport.errors import ConfigError, ContractViolation, IllConditionedSystem

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


# every retired key at the value the manifests written before hold
RETIRED_AS_WRITTEN = {
    "uzawa.optimizer": "adam",
    "lagrangian.include_source": True,
    "network.activation": "tanh",
    "uzawa.beta1": 0.9,
    "uzawa.beta2": 0.999,
    "uzawa.eps_adam": 1e-08,
    "uzawa.lambda_init": 0.0,
    "oracle.n_iter": 200,
    "lagrangian.resample": True,
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
    # a bound, a list shape and an unknown key in one report
    with pytest.raises(ConfigError) as err3:
        cm.from_flat({"uzawa.rho": "-1", "network.widths": "3,8,1", "bogus.key": "1"})
    keys = sorted(v.split(":", 1)[0] for v in err3.value.violations)
    assert keys == ["bogus.key", "network.widths", "uzawa.rho"]


# bound -> its edges as (value, whether the value is allowed); every closed
# edge is a lower one
BOUND_EDGES = {
    "> 0": [(0, False)],
    ">= 0": [(0, True)],
    ">= 1": [(1, True)],
    ">= 2": [(2, True)],
}


def test_every_integer_key_has_a_bound():
    # each is a count, a size or a seed
    assert all(isinstance(bound, str) for tag, _, bound in cm.SCHEMA.values() if tag == "int")


@pytest.mark.parametrize("key", [k for k, (_, _, bound) in cm.SCHEMA.items() if isinstance(bound, str)])
def test_every_schema_bound_holds_at_its_edges(key):
    tag, _, bound = cm.SCHEMA[key]
    for edge, allowed in BOUND_EDGES[bound]:
        outside = edge
        if allowed:
            assert cm.from_flat({key: edge})[key] == edge
            outside = edge - 1 if tag == "int" else math.nextafter(edge, -math.inf)
        with pytest.raises(ConfigError) as err:
            cm.from_flat({key: outside})
        assert len(err.value.violations) == 1
        assert err.value.violations[0].startswith(f"{key}: ")


@pytest.mark.parametrize(
    "prefix, cls",
    [("uzawa.", uzawa.UzawaConfig), ("lagrangian.", lagrangian.LagrangianConfig)],
)
def test_solver_sections_are_their_dataclass_fields(prefix, cls):
    keys = {key[len(prefix):] for key in cm.SCHEMA if key.startswith(prefix)}
    assert keys == {field.name for field in dataclasses.fields(cls)}


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


@pytest.mark.parametrize(
    "preset, overrides, strong, below",
    [
        # sigma_t = 9.9 is far above a quarter of sigma_a = 0.1
        ("example3-forward", {}, False, True),
        # the worked example: rho = 1 < rho_max = 3 - sqrt(0.84)
        (
            "example3-forward",
            {"problem.sigma_a.value": "1", "problem.sigma_t": "0.1", "lagrangian.gamma": "2", "uzawa.rho": "1"},
            True,
            True,
        ),
        # a split-plane sigma_a has no constant to check; rho = 3 > 2 gamma
        ("example5", {"uzawa.rho": "3"}, None, False),
    ],
)
def test_manifest_states_the_theory_regime(tmp_path, preset, overrides, strong, below):
    config = presets.expand_preset(preset, {**FAST_OVERRIDES, **overrides})
    assert cli.run_experiment(config, tmp_path.as_posix())[0] == 0
    final = json.loads((tmp_path / "manifest.json").read_text())["final_metrics"]
    assert final["strong_regime"] is strong and final["rho_below_2gamma"] is below


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
    # a manifest written while the retired keys were in SCHEMA holds them
    manifest = json.loads((out_a / "manifest.json").read_text())
    manifest["config"].update(RETIRED_AS_WRITTEN)
    older = tmp_path / "older.json"
    older.write_text(json.dumps(manifest))
    third = _run_cli(["run", older.as_posix(), "--out", (tmp_path / "c").as_posix(), "--threads", "1"])
    assert third.returncode == 0, third.stderr
    assert (out_a / "metrics.csv").read_bytes() == (tmp_path / "c" / "metrics.csv").read_bytes()


def test_retired_keys_are_ignored_at_their_one_value():
    default = cm.from_flat({})
    assert cm.from_flat(RETIRED_AS_WRITTEN) == default
    assert cm.from_flat({"lagrangian.include_source": "true", "oracle.n_iter": "200", "uzawa.beta1": "0.9"}) == default
    assert not set(cm._RETIRED) & set(default.to_flat())


def test_retired_values_are_what_the_code_uses(monkeypatch):
    from uzawa_transport import lagrangian, linear_oracle, network

    kept = {key: value for key, (_, value) in cm._RETIRED.items()}
    assert not set(kept) & set(cm.SCHEMA)
    assert set(network.ACTIVATIONS) == {kept["network.activation"]}
    assert (uzawa.Adam.beta1, uzawa.Adam.beta2, uzawa.Adam.eps) == (
        kept["uzawa.beta1"],
        kept["uzawa.beta2"],
        kept["uzawa.eps_adam"],
    )
    default_n_iter = inspect.signature(linear_oracle.verification_suite).parameters["n_iter"].default
    assert default_n_iter == kept["oracle.n_iter"]
    assert lagrangian.LagrangianConfig.resample is kept["lagrangian.resample"] is True
    # the multiplier the first inner minimization sees
    starts = []
    inner = uzawa.inner_minimize

    def record(state, *args, **kwargs):
        starts.append(state.multiplier.values.copy())
        return inner(state, *args, **kwargs)

    monkeypatch.setattr(uzawa, "inner_minimize", record)
    cfg = presets.expand_preset("example1", FAST_OVERRIDES)
    problem, _ = cm.build_problem(cfg)
    quad = cm.build_quadrature_set(cfg)
    uzawa.run(problem, quad, cm.build_network(cfg), cm.build_uzawa_config(cfg), cm.build_lagrangian_config(cfg))
    assert np.all(starts[0] == kept["uzawa.lambda_init"]) and np.any(starts[1] != 0.0)


@pytest.mark.parametrize(
    "key, value",
    [
        ("uzawa.optimizer", "sgd"),
        ("lagrangian.include_source", "false"),
        ("network.activation", "gelu"),
        ("uzawa.beta2", "0.99"),
        ("uzawa.lambda_init", "0.5"),
        ("oracle.n_iter", "2"),
        ("lagrangian.resample", "false"),
    ],
)
def test_cli_retired_key_at_another_value_exit_code(tmp_path, key, value):
    out = _run_cli(["preset", "example1", "--override", f"{key}={value}", "--out", tmp_path.as_posix()])
    assert out.returncode == 2
    lines = out.stderr.strip().splitlines()
    assert len(lines) == 2 and lines[0] == "configuration error:"
    assert lines[1].startswith(f"  - {key}: ")


@pytest.mark.parametrize("raw", [None, [0.9]], ids=["null", "list"])
def test_cli_retired_key_unparsable_in_a_manifest_exit_code(tmp_path, raw):
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps({"config": {"uzawa.beta1": raw}, "version": "0.1.0", "wall_clock": 1.0}))
    out = _run_cli(["run", path.as_posix(), "--out", (tmp_path / "out").as_posix()])
    assert out.returncode == 2, out.stderr
    assert out.stderr.splitlines()[1:] == [f"  - uzawa.beta1: retired; only 0.9 is accepted, got {raw!r}"]


def test_cli_float_keys_refuse_booleans_in_a_manifest(tmp_path):
    # float(True) is 1.0: a JSON true must not run as a number
    floats = {
        key: True if tag == "float" else [True, 0.5]
        for key, (tag, _, _) in cm.SCHEMA.items()
        if tag in ("float", "floats")
    }
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps({"config": floats, "version": "0.1.0", "wall_clock": 1.0}))
    out = _run_cli(["run", path.as_posix(), "--out", (tmp_path / "out").as_posix()])
    assert out.returncode == 2, out.stderr
    lines = out.stderr.splitlines()[1:]
    assert sorted(line.split(":")[0].removeprefix("  - ") for line in lines) == sorted(floats)
    assert all("cannot parse" in line for line in lines)


@pytest.mark.parametrize(
    "key, value",
    [("problem.source.kind", "constant"), ("problem.inflow.kind", "left-edge"), ("problem.noise.std", "0.1")],
)
def test_cli_manufactured_rejects_data_it_would_ignore_exit_code(tmp_path, key, value):
    args = ["preset", "manufactured", "--override", f"{key}={value}", "--out", tmp_path.as_posix()]
    for name, fast in FAST_OVERRIDES.items():
        args += ["--override", f"{name}={fast}"]
    out = _run_cli(args)
    assert out.returncode == 2, out.stderr
    lines = out.stderr.strip().splitlines()
    assert len(lines) == 2 and lines[1].startswith(f"  - {key}: ")


def test_every_schema_key_is_read(tmp_path, monkeypatch):
    # every key is honoured: what the builders of every preset, the Monte
    # Carlo rule, the output directory and one run read covers SCHEMA
    read = set()
    getitem, section = cm.ExperimentConfig.__getitem__, cm._section

    def record_item(cfg, key):
        read.add(key)
        return getitem(cfg, key)

    def record_section(cfg, prefix):
        fields = section(cfg, prefix)
        read.update(prefix + name for name in fields)
        return fields

    monkeypatch.setattr(cm.ExperimentConfig, "__getitem__", record_item)
    monkeypatch.setattr(cm, "_section", record_section)
    configs = [presets.expand_preset(name) for name in presets.PRESETS]
    configs.append(presets.expand_preset("manufactured", {"quadrature.scheme": phase_space.MONTE_CARLO}))
    for cfg in configs:
        cm.build_problem(cfg)
        cm.build_quadrature_set(cfg)
        cm.build_network(cfg)
        cm.build_lagrangian_config(cfg)
        cm.build_uzawa_config(cfg)
        cli._resolve_out_dir(None, cfg)
    tiny = presets.expand_preset("example1", FAST_OVERRIDES)
    assert cli.run_experiment(tiny, tmp_path.as_posix())[0] == 0
    assert read == set(cm.SCHEMA)


def test_cli_emit_quadrature_writes_the_run_nodes(tmp_path):
    overrides = {**FAST_OVERRIDES, "outputs.emit_quadrature": "true"}
    args = ["preset", "example1", "--out", tmp_path.as_posix(), "--threads", "1"]
    for key, value in overrides.items():
        args += ["--override", f"{key}={value}"]
    out = _run_cli(args)
    assert out.returncode == 0, out.stderr
    quad = cm.build_quadrature_set(presets.expand_preset("example1", overrides))
    with open(tmp_path / "quadrature.csv") as fh:
        rows = list(csv.DictReader(fh))
    kinds = ("interior", "angular", "boundary")
    assert [r["kind"] for r in rows] == [k for k in kinds for _ in range(len(getattr(quad, k)))]
    for kind in kinds:
        nodes, mine = getattr(quad, kind), [r for r in rows if r["kind"] == kind]
        columns = {"omega_angle": nodes.theta, "weight": nodes.weight}
        if kind == "angular":
            assert all(r["x1"] == r["x2"] == "" for r in mine)
        else:
            columns.update(x1=nodes.x[:, 0], x2=nodes.x[:, 1])
        for column, want in columns.items():
            assert np.array_equal([float(r[column]) for r in mine], want)  # lossless re-parse


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
        ("outputs.grids", "angular-slice:1e300"),
        ("outputs.grids", "angular-slice:-0.5"),
        ("problem.inflow.half_width", "-1"),
        ("outputs.grids", "angular-slice:0.00001,angular-slice:0.00002"),
        ("outputs.grids", "scalar-flux,scalar-flux"),
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
    "overrides, term",
    [
        ({"uzawa.learning_rate": "1e308"}, "parameters after the optimizer step"),
        ({"uzawa.learning_rate": "1e200"}, "loss part 'pde'"),
        (
            {"problem.inflow.kind": "constant", "problem.inflow.value": "1e200"},
            "loss part 'boundary_penalty' at outer step 0, inner step 0",
        ),
    ],
    ids=["1e308", "1e200", "inflow-1e200"],
)
def test_cli_optimizer_overflow_exit_code(tmp_path, overrides, term):
    # 1e308 overflows the optimizer update, 1e200 the next step's assembly;
    # an inflow of 1e200 overflows the initial boundary residual first
    assert term in _run_aborting(tmp_path, overrides)


def test_cli_non_finite_outer_record_exit_code(tmp_path):
    # finite multiplier values whose boundary norm overflows
    aborted = _run_aborting(tmp_path, {"uzawa.rho": "1e308", "uzawa.n_outer": "1"})
    assert aborted == "non-finite multiplier norm at outer step 0"


def test_cli_failed_verification_exit_code(tmp_path, monkeypatch, capsys):
    from uzawa_transport import linear_oracle

    checks = [("identity that holds", True, ""), ("identity that fails", False, "residual 1.0e+00")]
    monkeypatch.setattr(linear_oracle, "verification_suite", lambda: checks)
    assert cli.main(["verify", "--out", tmp_path.as_posix()]) == 1
    out = capsys.readouterr().out
    assert "[PASS] identity that holds" in out
    assert "[FAIL] identity that fails (residual 1.0e+00)" in out
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["final_metrics"]["checks_passed"] is False


@pytest.mark.parametrize(
    "error, code, stderr",
    [
        (
            IllConditionedSystem("refusing inner solve", 3.5e16),
            3,
            "numerical abort: refusing inner solve (condition estimate 3.500e+16)\n",
        ),
        (
            ContractViolation("multiplier step rho must be positive"),
            2,
            "configuration error:\n  - multiplier step rho must be positive\n",
        ),
    ],
    ids=["ill-conditioned", "contract"],
)
@pytest.mark.parametrize("command", ["verify", "preset"])
def test_cli_solver_exception_exit_code(tmp_path, monkeypatch, capsys, error, code, stderr, command):
    # either exception used to end in a traceback and exit 1, "failed verification"
    from uzawa_transport import linear_oracle

    def refuse(*_, **__):
        raise error

    argv = [command, "--out", tmp_path.as_posix()]
    if command == "verify":
        monkeypatch.setattr(linear_oracle, "verification_suite", refuse)
    else:
        monkeypatch.setattr(cm, "build_network", refuse)
        argv[1:1] = ["example1"]
        for key, value in FAST_OVERRIDES.items():
            argv += ["--override", f"{key}={value}"]
    assert cli.main(argv) == code
    assert capsys.readouterr().err == stderr


def test_cli_out_of_memory_exit_code(tmp_path, monkeypatch, capsys):
    # quadrature.n_angular=100000 asks the kernel matrix for 74.5 GiB; the
    # builder is made to fail as numpy does, without the allocation
    from uzawa_transport import kinetic_ops

    message = "Unable to allocate 74.5 GiB for an array with shape (100000, 100000) and data type float64"

    def refuse(self, theta_query, angular):
        raise MemoryError(message)

    monkeypatch.setattr(kinetic_ops.ScatteringKernel, "rows", refuse)
    argv = ["preset", "example1", "--out", tmp_path.as_posix()]
    for key, value in FAST_OVERRIDES.items():
        argv += ["--override", f"{key}={value}"]
    assert cli.main(argv) == 2
    assert capsys.readouterr().err == f"configuration error:\n  - out of memory: {message}\n"


def test_cli_unmappable_workspace_exit_code(tmp_path, monkeypatch, capsys):
    # the system refuses the kernel workspace's mapping (ENOMEM), as it does a
    # network too wide to fit; out of memory is exit 2, not an i/o error
    from uzawa_transport import network

    def refuse(fileno, length):
        raise OSError(errno.ENOMEM, "Cannot allocate memory")

    monkeypatch.setattr(network.mmap, "mmap", refuse)
    overrides = {**FAST_OVERRIDES, "uzawa.n_outer": "1", "uzawa.n_inner": "1"}
    argv = ["preset", "example1", "--out", tmp_path.as_posix()]
    for key, value in overrides.items():
        argv += ["--override", f"{key}={value}"]
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error:\n  - out of memory: cannot map a ") and "i/o error" not in err


@pytest.mark.parametrize(
    "args, key",
    [
        (["--seed", "-2"], "seed"),
        (["--override", "seed=-1"], "seed"),
        (["--override", "network.seed=-1"], "network.seed"),
        (["--override", "problem.noise.std=0.1", "--override", "problem.noise.seed=-5"], "problem.noise.seed"),
        (["--override", "quadrature.scheme=monte-carlo", "--override", "quadrature.seed=-3"], "quadrature.seed"),
    ],
    ids=["flag", "run", "network", "noise", "quadrature"],
)
def test_cli_negative_seed_exit_code(tmp_path, capsys, args, key):
    argv = ["preset", "example1", "--out", tmp_path.as_posix(), *args]
    for name, value in FAST_OVERRIDES.items():
        argv += ["--override", f"{name}={value}"]
    assert cli.main(argv) == 2
    assert f"  - {key}: " in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [["--threads", "3", "verify"], ["verify", "--threads", "3"]],
    ids=["before", "after"],
)
def test_cli_threads_pin_blas_before_numpy_loads(argv, tmp_path):
    # records the thread variables at the moment numpy is first imported;
    # verify loads numpy (list-presets does not)
    argv = [*argv, "--out", tmp_path.as_posix()]
    code = (
        "import json, os, sys\n"
        "from uzawa_transport import cli\n"
        "seen = []\n"
        "class Watch:\n"
        "    def find_spec(self, name, path=None, target=None):\n"
        "        if name == 'numpy' and not seen:\n"
        "            seen.append([os.environ.get(var) for var in cli._THREAD_VARS])\n"
        "sys.meta_path.insert(0, Watch())\n"
        "numpy_before_main = 'numpy' in sys.modules\n"
        "code = cli.main(sys.argv[1:])\n"
        "after = [os.environ.get(var) for var in cli._THREAD_VARS]\n"
        "print(json.dumps([numpy_before_main, code, seen, after]))\n"
    )
    env = {k: v for k, v in os.environ.items() if k not in cli._THREAD_VARS}
    out = subprocess.run(
        [sys.executable, "-c", code, *argv], capture_output=True, text=True, env=env, timeout=120
    )
    assert out.returncode == 0, out.stderr
    numpy_before_main, code, seen, after = json.loads(out.stdout.splitlines()[-1])
    assert not numpy_before_main and code == 0
    assert seen == [["3"] * 5] and after == ["3"] * 5


@pytest.mark.parametrize("argv", [["--threads", "0", "list-presets"], ["list-presets", "--threads", "-4"]])
def test_cli_threads_refuses_a_count_below_one(argv, capsys):
    with pytest.raises(SystemExit) as stop:
        cli.main(argv)
    err = capsys.readouterr().err
    assert stop.value.code == 2 and err.startswith("usage:")
    assert "argument --threads: expected a count >= 1" in err


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

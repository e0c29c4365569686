"""Experiment configuration: flat dotted-key schema with full validation.

Config files are plain text, one ``section.key = value`` per line, ``#``
comments.  Each key's type, default and allowed values (a choices tuple
or a bound such as ``> 0``) are declared once, in ``SCHEMA``;
``_semantic_violations`` holds only the rules that couple keys or check
the shape of a list value.  Unknown keys are rejected and all violations
are reported together rather than one at a time.  The same flat
dictionary is what run manifests snapshot, so a manifest can be fed back
to ``run`` to reproduce an experiment; a key since retired from
``SCHEMA`` (``_RETIRED``) is accepted only at the one value the code now
fixes, so older manifests re-run bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import diagnostics_io, kinetic_ops, lagrangian, network, phase_space, uzawa
from .errors import ConfigError, ContractViolation

TRAIN = "train"
ORACLE_VERIFY = "oracle-verify"

# key -> (type tag, default, allowed values: a choices tuple, a bound
# from _BOUNDS, or None)
SCHEMA = {
    "mode": ("str", TRAIN, (TRAIN, ORACLE_VERIFY)),
    "preset": ("str", "", None),
    "seed": ("int", 0, ">= 0"),
    "problem.sigma_a.kind": (
        "str",
        "constant",
        ("constant", "ball-obstacle", "split-plane"),
    ),
    "problem.sigma_a.value": ("float", 1.0, None),
    "problem.sigma_a.center": ("floats", (0.5, 0.5), None),
    "problem.sigma_a.radius": ("float", 0.15, ">= 0"),
    "problem.sigma_a.inside": ("float", 50.0, None),
    "problem.sigma_a.outside": ("float", 1.0, None),
    "problem.sigma_a.threshold": ("float", 0.5, None),
    "problem.sigma_a.left": ("float", 0.1, None),
    "problem.sigma_a.right": ("float", 5.0, None),
    "problem.sigma_t": ("float", 0.0, ">= 0"),
    "problem.kernel.kind": ("str", "isotropic", ("isotropic", "forward-peaked")),
    "problem.kernel.epsilon": ("float", 0.1, None),
    "problem.source.kind": ("str", "zero", ("zero", "constant", "ball")),
    "problem.source.value": ("float", 1.0, None),
    "problem.source.center": ("floats", (0.5, 0.5), None),
    "problem.source.radius": ("float", 1.0, ">= 0"),
    "problem.inflow.kind": (
        "str",
        "zero",
        ("zero", "constant", "edge-window", "left-edge"),
    ),
    "problem.inflow.value": ("float", 1.0, None),
    "problem.inflow.half_width": ("float", math.pi / 16.0, "> 0"),
    "problem.noise.std": ("float", 0.0, ">= 0"),
    "problem.noise.seed": ("int", 777, ">= 0"),
    "problem.manufactured": ("bool", False, None),
    "quadrature.scheme": (
        "str",
        phase_space.TENSOR_GAUSS,
        (phase_space.TENSOR_GAUSS, phase_space.MONTE_CARLO),
    ),
    "quadrature.n_spatial": ("int", 20, ">= 2"),
    "quadrature.n_interior": ("int", 4096, ">= 2"),
    "quadrature.n_angular": ("int", 12, ">= 2"),
    "quadrature.n_boundary_pos": ("int", 8, ">= 2"),
    "quadrature.n_boundary_ang": ("int", 8, ">= 2"),
    "quadrature.n_boundary": ("int", 1024, ">= 2"),
    "quadrature.seed": ("int", 0, ">= 0"),
    "network.widths": ("ints", (4, 64, 64, 64, 1), None),
    "network.seed": ("int", 0, ">= 0"),
    "lagrangian.gamma": ("float", 1.0, ">= 0"),
    "lagrangian.batch_interior": ("int", 0, ">= 0"),  # 0 means the full set
    "lagrangian.resample": ("bool", True, None),
    "uzawa.rho": ("float", 1.0, "> 0"),
    "uzawa.n_outer": ("int", 10, ">= 1"),
    "uzawa.n_inner": ("int", 200, ">= 1"),
    "uzawa.learning_rate": ("float", 1e-3, "> 0"),
    "outputs.directory": ("str", "", None),
    "outputs.grid_n": ("int", 101, ">= 2"),
    "outputs.grids": ("strs", ("scalar-flux",), None),
    "outputs.emit_quadrature": ("bool", False, None),
    "outputs.checkpoint": ("bool", True, None),
}

# key -> (type tag, the one value every run used); from_flat accepts it only there
_RETIRED = {
    "uzawa.optimizer": ("str", "adam"),
    "lagrangian.include_source": ("bool", True),
    "network.activation": ("str", "tanh"),
    "uzawa.beta1": ("float", 0.9),
    "uzawa.beta2": ("float", 0.999),
    "uzawa.eps_adam": ("float", 1e-8),
    "uzawa.lambda_init": ("float", 0.0),
    "oracle.n_iter": ("int", 200),
}

_BOUNDS = {
    "> 0": lambda v: v > 0,
    ">= 0": lambda v: v >= 0,
    ">= 1": lambda v: v >= 1,
    ">= 2": lambda v: v >= 2,
}


def _integer(raw):
    """An int from an int, an integral float or a decimal string; a bool or
    a fractional number (both can come from a JSON manifest) is refused."""
    if isinstance(raw, bool) or (isinstance(raw, float) and not raw.is_integer()):
        raise ValueError(f"not an integer: {raw!r}")
    return int(raw)


def _boolean(raw):
    if isinstance(raw, bool):
        return raw
    if str(raw).lower() in ("true", "1", "yes", "on"):
        return True
    if str(raw).lower() in ("false", "0", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {raw!r}")


# a list tag ("ints", "floats", "strs") parses each item with its scalar tag
_SCALARS = {"int": _integer, "float": float, "bool": _boolean, "str": str}


def _convert(key, raw, violations):
    """The parsed value of one key; on any violation, the key's default,
    so the coupled rules read only values that passed their own checks."""
    tag, default, allowed = SCHEMA[key]
    try:
        if tag in _SCALARS:
            value = _SCALARS[tag](raw)
        else:
            items = raw
            if not isinstance(raw, (tuple, list)):
                items = [p.strip() for p in str(raw).split(",") if p.strip()]
            value = tuple(map(_SCALARS[tag[:-1]], items))
    except (TypeError, ValueError) as err:
        violations.append(f"{key}: cannot parse {raw!r} as {tag} ({err})")
        return default
    if tag in ("float", "floats") and not np.isfinite(value).all():
        violations.append(f"{key}: must be finite, got {raw!r}")
    elif isinstance(allowed, tuple) and value not in allowed:
        violations.append(f"{key}: {value!r} is not one of {allowed}")
    elif isinstance(allowed, str) and not _BOUNDS[allowed](value):
        violations.append(f"{key}: must satisfy {key.rsplit('.', 1)[-1]} {allowed}, got {value!r}")
    else:
        return value
    return default


@dataclass(frozen=True, eq=True)
class ExperimentConfig:
    """Validated, fully-defaulted experiment description."""

    items: tuple  # sorted (key, value) pairs

    def __getitem__(self, key):
        return dict(self.items)[key]

    @property
    def mode(self):
        return self["mode"]

    def to_flat(self):
        """Flat dict with lists rendered as comma strings (manifest form)."""
        out = {}
        for key, value in self.items:
            if isinstance(value, tuple):
                out[key] = ",".join(str(v) for v in value)
            else:
                out[key] = value
        return out


# the absorption values each problem.sigma_a.kind reads
_ABSORPTION_FIELDS = {
    "constant": ("problem.sigma_a.value",),
    "ball-obstacle": ("problem.sigma_a.inside", "problem.sigma_a.outside"),
    "split-plane": ("problem.sigma_a.left", "problem.sigma_a.right"),
}


def _semantic_violations(values):
    """The rules that read two or more keys or check a list value's shape."""
    v = []
    for key in _ABSORPTION_FIELDS[values["problem.sigma_a.kind"]]:
        if values[key] < 0:
            v.append(f"{key}: absorption must be >= 0")
    if values["problem.kernel.kind"] == "forward-peaked" and values["problem.kernel.epsilon"] <= 0:
        v.append("problem.kernel.epsilon: forward-peaked kernel needs epsilon > 0")
    if values["problem.manufactured"]:
        if values["problem.sigma_a.kind"] != "constant":
            v.append("problem.manufactured: needs a constant absorption coefficient")
        # the manufactured solution brings its own source and a zero trace
        for key in ("problem.source.kind", "problem.inflow.kind"):
            if values[key] != "zero":
                v.append(f"{key}: must be 'zero' on a manufactured problem, got {values[key]!r}")
        if values["problem.noise.std"] > 0:
            v.append("problem.noise.std: a manufactured problem has no inflow data to perturb")
    batch = values["lagrangian.batch_interior"]
    if values["quadrature.scheme"] == phase_space.TENSOR_GAUSS:
        full = values["quadrature.n_spatial"] ** 2
    else:
        full = values["quadrature.n_interior"]
    if batch > full:
        v.append(f"lagrangian.batch_interior: batch {batch} exceeds the interior size {full}")
    try:
        network.init_params(values["network.widths"])  # the network's own checks
    except ContractViolation as err:
        v.append(f"network.widths: {err}")
    for key in ("problem.sigma_a.center", "problem.source.center"):
        if len(values[key]) != 2:
            v.append(f"{key}: needs two coordinates")
    files = {}
    for entry in values["outputs.grids"]:
        if entry != "scalar-flux" and not entry.startswith("angular-slice:"):
            v.append(f"outputs.grids: unknown grid kind {entry!r}")
            continue
        name, angle = diagnostics_io.grid_output(entry)
        if angle is not None and not 0.0 <= angle < 2.0 * math.pi:  # NaN fails too
            v.append(f"outputs.grids: slice angle must lie in [0, 2*pi) in {entry!r}")
        elif name in files:
            v.append(f"outputs.grids: {files[name]!r} and {entry!r} both write {name}")
        files[name] = entry
    return v


def from_flat(mapping):
    """Validate a flat key/value mapping into an ExperimentConfig.

    Raises ConfigError listing every violation (unknown keys, retired keys
    at another value, parse failures, bounds, coupled rules), not just the
    first.
    """
    violations = []
    values = {key: default for key, (_, default, _) in SCHEMA.items()}
    for key, raw in mapping.items():
        if key in _RETIRED:
            tag, kept = _RETIRED[key]
            try:
                if _SCALARS[tag](raw) == kept:
                    continue
            except (TypeError, ValueError):
                pass
            violations.append(f"{key}: retired; only {kept!r} is accepted, got {raw!r}")
        elif key not in SCHEMA:
            violations.append(f"{key}: unknown configuration key")
        else:
            values[key] = _convert(key, raw, violations)
    violations.extend(_semantic_violations(values))
    if violations:
        raise ConfigError(violations)
    return ExperimentConfig(tuple(sorted(values.items())))


def parse_config(path):
    """Parse a flat-key config file; syntax errors carry line numbers."""
    violations = []
    mapping = {}
    try:
        with open(path) as fh:
            lines = fh.readlines()
    except OSError as err:
        raise ConfigError([f"{path}: {err}"]) from err
    for lineno, line in enumerate(lines, start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            violations.append(f"{path}:{lineno}: expected 'key = value', got {stripped!r}")
            continue
        key, _, value = stripped.partition("=")
        mapping[key.strip()] = value.strip()
    if violations:
        raise ConfigError(violations)
    return from_flat(mapping)


# -- builders -----------------------------------------------------------------


def _build_sigma_a(cfg):
    kind = cfg["problem.sigma_a.kind"]
    if kind == "constant":
        return kinetic_ops.constant_absorption(cfg["problem.sigma_a.value"])
    if kind == "ball-obstacle":
        return kinetic_ops.ball_obstacle(
            cfg["problem.sigma_a.center"],
            cfg["problem.sigma_a.radius"],
            cfg["problem.sigma_a.inside"],
            cfg["problem.sigma_a.outside"],
        )
    return kinetic_ops.split_plane(
        cfg["problem.sigma_a.threshold"],
        cfg["problem.sigma_a.left"],
        cfg["problem.sigma_a.right"],
    )


def _manufactured_pieces(sigma_a_value):
    def value(x, theta):
        x = np.atleast_2d(x)
        return np.sin(np.pi * x[:, 0]) * np.sin(np.pi * x[:, 1])

    def directional(x, theta):
        x = np.atleast_2d(x)
        theta = np.atleast_1d(theta)
        gx = np.pi * np.cos(np.pi * x[:, 0]) * np.sin(np.pi * x[:, 1])
        gy = np.pi * np.sin(np.pi * x[:, 0]) * np.cos(np.pi * x[:, 1])
        return np.cos(theta) * gx + np.sin(theta) * gy

    def source(x, theta):
        return directional(x, theta) + sigma_a_value * value(x, theta)

    return value, directional, source


def _build_source(cfg):
    kind = cfg["problem.source.kind"]
    if kind == "zero":
        return None
    if kind == "constant":
        value = cfg["problem.source.value"]
        return lambda x, theta: np.full(np.atleast_2d(x).shape[0], value)
    center = np.asarray(cfg["problem.source.center"])
    radius = cfg["problem.source.radius"]
    value = cfg["problem.source.value"]

    def ball(x, theta):
        x = np.atleast_2d(x)
        r2 = (x[:, 0] - center[0]) ** 2 + (x[:, 1] - center[1]) ** 2
        return np.where(r2 <= radius * radius, value, 0.0)

    return ball


def _build_inflow(cfg, domain):
    kind = cfg["problem.inflow.kind"]
    if kind == "zero":
        return None
    value = cfg["problem.inflow.value"]
    if kind == "constant":
        return lambda x, theta: np.full(np.atleast_2d(x).shape[0], value)
    lo0 = domain.lo[0]
    if kind == "left-edge":

        def left_edge(x, theta):
            x = np.atleast_2d(x)
            return np.where(np.abs(x[:, 0] - lo0) <= 1e-9, value, 0.0)

        return left_edge
    half_width = cfg["problem.inflow.half_width"]

    def window(x, theta):
        x = np.atleast_2d(x)
        theta = np.atleast_1d(theta)
        wrapped = np.angle(np.exp(1j * theta))
        on_edge = np.abs(x[:, 0] - lo0) <= 1e-9
        in_window = np.abs(wrapped) <= half_width + 1e-12
        return np.where(on_edge & in_window, value, 0.0)

    return window


def build_problem(cfg, domain=phase_space.UNIT_SQUARE):
    """ProblemSpec plus the exact reference when one exists."""
    sigma_a = _build_sigma_a(cfg)
    kernel = (
        kinetic_ops.isotropic_kernel()
        if cfg["problem.kernel.kind"] == "isotropic"
        else kinetic_ops.forward_peaked_kernel(cfg["problem.kernel.epsilon"])
    )
    reference = None
    if cfg["problem.manufactured"]:
        value, directional, source = _manufactured_pieces(cfg["problem.sigma_a.value"])
        f, g = source, None  # the exact trace vanishes on the unit square
        reference = kinetic_ops.ReferenceSolution(value, directional)
    else:
        f = _build_source(cfg)
        g = _build_inflow(cfg, domain)
    noise = None
    if cfg["problem.noise.std"] > 0:
        noise = kinetic_ops.NoiseSpec(cfg["problem.noise.std"], cfg["problem.noise.seed"])
    data = kinetic_ops.SourceAndInflow(f, g, noise)
    problem = kinetic_ops.ProblemSpec(sigma_a, cfg["problem.sigma_t"], kernel, data)
    return problem, reference


def build_quadrature_set(cfg, domain=phase_space.UNIT_SQUARE):
    tensor = cfg["quadrature.scheme"] == phase_space.TENSOR_GAUSS
    return phase_space.build_quadrature(
        domain,
        cfg["quadrature.scheme"],
        n_spatial=cfg["quadrature.n_spatial" if tensor else "quadrature.n_interior"],
        n_angular=cfg["quadrature.n_angular"],
        n_boundary=(
            (cfg["quadrature.n_boundary_pos"], cfg["quadrature.n_boundary_ang"])
            if tensor
            else cfg["quadrature.n_boundary"]
        ),
        seed=cfg["quadrature.seed"],
    )


def build_network(cfg):
    return network.init_params(cfg["network.widths"], cfg["network.seed"])


def _section(cfg, prefix):
    """The keys under ``prefix``, named as the fields of its dataclass."""
    return {key[len(prefix):]: value for key, value in cfg.items if key.startswith(prefix)}


def build_lagrangian_config(cfg):
    section = _section(cfg, "lagrangian.")
    section["batch_interior"] = section["batch_interior"] or None
    return lagrangian.LagrangianConfig(**section)


def build_uzawa_config(cfg):
    return uzawa.UzawaConfig(**_section(cfg, "uzawa."))

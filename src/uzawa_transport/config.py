"""Experiment configuration: flat dotted-key schema with full validation.

Config files are plain text, one ``section.key = value`` per line, ``#``
comments.  Every key has a declared type and default; unknown keys are
rejected and all violations are reported together rather than one at a
time.  The same flat dictionary is what run manifests snapshot, so a
manifest can be fed back to ``run`` to reproduce an experiment.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import kinetic_ops, lagrangian, network, phase_space, uzawa
from .errors import ConfigError

TRAIN = "train"
ORACLE_VERIFY = "oracle-verify"

# key -> (type tag, default, allowed choices or None)
SCHEMA = {
    "mode": ("str", TRAIN, (TRAIN, ORACLE_VERIFY)),
    "preset": ("str", "", None),
    "seed": ("int", 0, None),
    "problem.sigma_a.kind": (
        "str",
        "constant",
        ("constant", "ball-obstacle", "split-plane"),
    ),
    "problem.sigma_a.value": ("float", 1.0, None),
    "problem.sigma_a.center": ("floats", (0.5, 0.5), None),
    "problem.sigma_a.radius": ("float", 0.15, None),
    "problem.sigma_a.inside": ("float", 50.0, None),
    "problem.sigma_a.outside": ("float", 1.0, None),
    "problem.sigma_a.threshold": ("float", 0.5, None),
    "problem.sigma_a.left": ("float", 0.1, None),
    "problem.sigma_a.right": ("float", 5.0, None),
    "problem.sigma_t": ("float", 0.0, None),
    "problem.kernel.kind": ("str", "isotropic", ("isotropic", "forward-peaked")),
    "problem.kernel.epsilon": ("float", 0.1, None),
    "problem.source.kind": ("str", "zero", ("zero", "constant", "ball")),
    "problem.source.value": ("float", 1.0, None),
    "problem.source.center": ("floats", (0.5, 0.5), None),
    "problem.source.radius": ("float", 1.0, None),
    "problem.inflow.kind": (
        "str",
        "zero",
        ("zero", "constant", "edge-window", "left-edge"),
    ),
    "problem.inflow.value": ("float", 1.0, None),
    "problem.inflow.half_width": ("float", math.pi / 16.0, None),
    "problem.noise.std": ("float", 0.0, None),
    "problem.noise.seed": ("int", 777, None),
    "problem.manufactured": ("bool", False, None),
    "quadrature.scheme": (
        "str",
        phase_space.TENSOR_GAUSS,
        (phase_space.TENSOR_GAUSS, phase_space.MONTE_CARLO),
    ),
    "quadrature.n_spatial": ("int", 20, None),
    "quadrature.n_interior": ("int", 4096, None),
    "quadrature.n_angular": ("int", 12, None),
    "quadrature.n_boundary_pos": ("int", 8, None),
    "quadrature.n_boundary_ang": ("int", 8, None),
    "quadrature.n_boundary": ("int", 1024, None),
    "quadrature.seed": ("int", 0, None),
    "network.widths": ("ints", (4, 64, 64, 64, 1), None),
    "network.activation": ("str", "tanh", tuple(network.ACTIVATIONS)),
    "network.seed": ("int", 0, None),
    "lagrangian.gamma": ("float", 1.0, None),
    "lagrangian.include_source": ("bool", True, None),
    "lagrangian.batch_interior": ("int", 0, None),
    "lagrangian.resample": ("bool", True, None),
    "uzawa.rho": ("float", 1.0, None),
    "uzawa.n_outer": ("int", 10, None),
    "uzawa.n_inner": ("int", 200, None),
    "uzawa.learning_rate": ("float", 1e-3, None),
    "uzawa.optimizer": ("str", "adam", ("adam", "sgd")),
    "uzawa.beta1": ("float", 0.9, None),
    "uzawa.beta2": ("float", 0.999, None),
    "uzawa.eps_adam": ("float", 1e-8, None),
    "uzawa.lambda_init": ("float", 0.0, None),
    "outputs.directory": ("str", "", None),
    "outputs.grid_n": ("int", 101, None),
    "outputs.grids": ("strs", ("scalar-flux",), None),
    "outputs.emit_quadrature": ("bool", False, None),
    "outputs.checkpoint": ("bool", True, None),
    "oracle.n_iter": ("int", 200, None),
}


def _integer(raw):
    """An int from an int, an integral float or a decimal string; a bool or
    a fractional number (both can come from a JSON manifest) is refused."""
    if isinstance(raw, bool) or (isinstance(raw, float) and not raw.is_integer()):
        raise ValueError(f"not an integer: {raw!r}")
    return int(raw)


def _convert(key, raw, violations):
    tag, default, choices = SCHEMA[key]
    try:
        if tag == "int":
            value = _integer(raw)
        elif tag == "float":
            value = float(raw)
        elif tag == "bool":
            if isinstance(raw, bool):
                value = raw
            elif str(raw).lower() in ("true", "1", "yes", "on"):
                value = True
            elif str(raw).lower() in ("false", "0", "no", "off"):
                value = False
            else:
                raise ValueError(f"not a boolean: {raw!r}")
        elif tag == "ints":
            if isinstance(raw, (tuple, list)):
                value = tuple(_integer(v) for v in raw)
            else:
                value = tuple(_integer(p) for p in str(raw).split(",") if p.strip())
        elif tag == "floats":
            if isinstance(raw, (tuple, list)):
                value = tuple(float(v) for v in raw)
            else:
                value = tuple(float(p) for p in str(raw).split(",") if p.strip())
        elif tag == "strs":
            if isinstance(raw, (tuple, list)):
                value = tuple(str(v) for v in raw)
            else:
                value = tuple(p.strip() for p in str(raw).split(",") if p.strip())
        else:
            value = str(raw)
    except (TypeError, ValueError) as err:
        violations.append(f"{key}: cannot parse {raw!r} as {tag} ({err})")
        return default
    if tag in ("float", "floats") and not np.isfinite(value).all():
        violations.append(f"{key}: must be finite, got {raw!r}")
    if choices is not None and value not in choices:
        violations.append(f"{key}: {value!r} is not one of {choices}")
    return value


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
    v = []
    if values["uzawa.rho"] <= 0:
        v.append(
            "uzawa.rho: multiplier ascent step must satisfy rho > 0 "
            "(and the convergence theory wants rho < 2*gamma)"
        )
    if values["uzawa.n_outer"] < 1 or values["uzawa.n_inner"] < 1:
        v.append("uzawa.n_outer/n_inner: iteration counts must be >= 1")
    if values["uzawa.learning_rate"] <= 0:
        v.append("uzawa.learning_rate: must be positive")
    for key in ("uzawa.beta1", "uzawa.beta2"):
        if not 0.0 <= values[key] < 1.0:
            v.append(f"{key}: Adam decay rate must satisfy 0 <= {key[6:]} < 1")
    if values["uzawa.eps_adam"] <= 0:
        v.append("uzawa.eps_adam: must be positive")
    if values["lagrangian.gamma"] < 0:
        v.append("lagrangian.gamma: boundary stabilization weight must be >= 0")
    for key in _ABSORPTION_FIELDS[values["problem.sigma_a.kind"]]:
        if values[key] < 0:
            v.append(f"{key}: absorption must be >= 0")
    for key in ("problem.sigma_a.radius", "problem.source.radius"):
        if values[key] < 0:
            v.append(f"{key}: radius must be >= 0")
    if values["problem.sigma_t"] < 0:
        v.append("problem.sigma_t: scattering strength must be >= 0")
    if values["problem.kernel.kind"] == "forward-peaked" and values["problem.kernel.epsilon"] <= 0:
        v.append("problem.kernel.epsilon: forward-peaked kernel needs epsilon > 0")
    widths = values["network.widths"]
    if len(widths) < 3:
        v.append("network.widths: need (d0, ..., 1) with at least one hidden layer")
    elif widths[-1] != 1:
        v.append("network.widths: output width must be 1")
    elif any(w <= 0 for w in widths):
        v.append("network.widths: all widths must be positive")
    elif widths[0] != 4:
        v.append("network.widths: input width must be 4, the embedding (x1, x2, cos theta, sin theta)")
    if values["problem.manufactured"] and values["problem.sigma_a.kind"] != "constant":
        v.append("problem.manufactured: needs a constant absorption coefficient")
    if len(values["problem.sigma_a.center"]) != 2:
        v.append("problem.sigma_a.center: needs two coordinates")
    if len(values["problem.source.center"]) != 2:
        v.append("problem.source.center: needs two coordinates")
    if values["problem.noise.std"] < 0:
        v.append("problem.noise.std: must be >= 0")
    batch = values["lagrangian.batch_interior"]
    if batch < 0:
        v.append("lagrangian.batch_interior: must be >= 0 (0 means the full set)")
    elif batch > 0:
        if values["quadrature.scheme"] == phase_space.TENSOR_GAUSS:
            full = values["quadrature.n_spatial"] ** 2
        else:
            full = values["quadrature.n_interior"]
        if batch > full:
            v.append(
                f"lagrangian.batch_interior: batch {batch} exceeds the interior size {full}"
            )
    for key in (
        "quadrature.n_spatial",
        "quadrature.n_interior",
        "quadrature.n_angular",
        "quadrature.n_boundary_pos",
        "quadrature.n_boundary_ang",
        "quadrature.n_boundary",
        "outputs.grid_n",
    ):
        if values[key] < 2:
            v.append(f"{key}: must be >= 2")
    for entry in values["outputs.grids"]:
        if entry != "scalar-flux" and not entry.startswith("angular-slice:"):
            v.append(f"outputs.grids: unknown grid kind {entry!r}")
        elif entry.startswith("angular-slice:"):
            try:
                angle = float(entry.split(":", 1)[1])
            except ValueError:
                angle = math.nan
            if not math.isfinite(angle):
                v.append(f"outputs.grids: slice angle must be a finite number in {entry!r}")
    if values["oracle.n_iter"] < 1:
        v.append("oracle.n_iter: must be >= 1")
    return v


def from_flat(mapping):
    """Validate a flat key/value mapping into an ExperimentConfig.

    Raises ConfigError listing every violation (unknown keys, parse
    failures, contract violations), not just the first.
    """
    violations = []
    values = {key: default for key, (_, default, _) in SCHEMA.items()}
    for key, raw in mapping.items():
        if key not in SCHEMA:
            violations.append(f"{key}: unknown configuration key")
            continue
        values[key] = _convert(key, raw, violations)
    if not violations:
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
    return network.init_params(
        cfg["network.widths"], cfg["network.activation"], cfg["network.seed"]
    )


def build_lagrangian_config(cfg):
    batch = cfg["lagrangian.batch_interior"]
    return lagrangian.LagrangianConfig(
        gamma=cfg["lagrangian.gamma"],
        include_source=cfg["lagrangian.include_source"],
        batch_interior=batch if batch > 0 else None,
        resample=cfg["lagrangian.resample"],
    )


def build_uzawa_config(cfg):
    return uzawa.UzawaConfig(
        rho=cfg["uzawa.rho"],
        n_outer=cfg["uzawa.n_outer"],
        n_inner=cfg["uzawa.n_inner"],
        learning_rate=cfg["uzawa.learning_rate"],
        optimizer=cfg["uzawa.optimizer"],
        beta1=cfg["uzawa.beta1"],
        beta2=cfg["uzawa.beta2"],
        eps_adam=cfg["uzawa.eps_adam"],
        lambda_init=cfg["uzawa.lambda_init"],
    )

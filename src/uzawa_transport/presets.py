"""Ready-made experiment configurations.

Each preset expands to a complete, validated ExperimentConfig; expansion is
pure (expanding twice gives identical configs).  Training presets are sized
for a desk-scale CPU run.  Where a published setup leaves something
unspecified, the preset documents its own choice in the description.
The table itself imports nothing heavy: ``config``, and with it numpy,
loads only when a preset is expanded, so ``list-presets`` runs without
numpy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


@dataclass(frozen=True)
class Preset:
    name: str
    description: str
    source: str
    flat: tuple  # (key, value) overrides on top of the schema defaults


def _preset(name, description, source, **flat):
    merged = {"preset": name, **flat}
    return Preset(name, description, source, tuple(sorted(merged.items())))


PRESETS = {
    p.name: p
    for p in [
        _preset(
            "example1",
            "uniform absorber, unit interior source (its stated radius 1 ball "
            "covers the whole domain; kept literal), zero inflow",
            "experiment 1",
            **{
                "problem.sigma_a.kind": "constant",
                "problem.sigma_a.value": 1.0,
                "problem.sigma_t": 0.0,
                "problem.source.kind": "ball",
                "problem.source.value": 1.0,
                "problem.source.center": (0.5, 0.5),
                "problem.source.radius": 1.0,
                "problem.inflow.kind": "zero",
                "quadrature.n_spatial": 20,
                "quadrature.n_angular": 12,
                "lagrangian.batch_interior": 48,
                "uzawa.n_outer": 10,
                "uzawa.n_inner": 300,
                "outputs.grids": ("scalar-flux", "angular-slice:0.0", "angular-slice:1.5707963267948966"),
            },
        ),
        _preset(
            "example2",
            "high-absorption obstacle shadowing a boundary beam (beam opening "
            "pi/16 is this preset's regularization of a single-direction datum)",
            "experiment 2",
            **{
                "problem.sigma_a.kind": "ball-obstacle",
                "problem.sigma_a.center": (0.5, 0.5),
                "problem.sigma_a.radius": 0.15,
                "problem.sigma_a.inside": 50.0,
                "problem.sigma_a.outside": 1.0,
                "problem.sigma_t": 0.0,
                "problem.inflow.kind": "edge-window",
                "problem.inflow.value": 1.0,
                "problem.inflow.half_width": math.pi / 16.0,
                "quadrature.n_spatial": 24,
                "quadrature.n_angular": 16,
                "quadrature.n_boundary_pos": 8,
                "quadrature.n_boundary_ang": 16,
                "lagrangian.batch_interior": 64,
                "uzawa.n_outer": 10,
                "uzawa.n_inner": 600,
                "outputs.grids": ("scalar-flux", "angular-slice:0.0"),
            },
        ),
        _preset(
            "example3-isotropic",
            "scattering-dominated medium (absorption 0.1, scattering 9.9), "
            "isotropic kernel, unit inflow",
            "experiment 3",
            **{
                "problem.sigma_a.kind": "constant",
                "problem.sigma_a.value": 0.1,
                "problem.sigma_t": 9.9,
                "problem.kernel.kind": "isotropic",
                "problem.inflow.kind": "constant",
                "problem.inflow.value": 1.0,
                "quadrature.n_spatial": 20,
                "quadrature.n_angular": 16,
                "lagrangian.batch_interior": 48,
                "uzawa.n_outer": 8,
                "uzawa.n_inner": 300,
                "outputs.grids": ("scalar-flux", "angular-slice:0.0"),
            },
        ),
        _preset(
            "example3-forward",
            "scattering-dominated medium, forward-peaked kernel exp(cos/0.1)",
            "experiment 3",
            **{
                "problem.sigma_a.kind": "constant",
                "problem.sigma_a.value": 0.1,
                "problem.sigma_t": 9.9,
                "problem.kernel.kind": "forward-peaked",
                "problem.kernel.epsilon": 0.1,
                "problem.inflow.kind": "constant",
                "problem.inflow.value": 1.0,
                "quadrature.n_spatial": 20,
                "quadrature.n_angular": 32,
                "lagrangian.batch_interior": 48,
                "uzawa.n_outer": 8,
                "uzawa.n_inner": 300,
                "outputs.grids": ("scalar-flux", "angular-slice:0.0"),
            },
        ),
        _preset(
            "example4",
            "discontinuous inflow on one edge with frozen Gaussian noise "
            "(std 0.05, realized once per boundary node)",
            "experiment 4",
            **{
                "problem.sigma_a.kind": "constant",
                "problem.sigma_a.value": 1.0,
                "problem.sigma_t": 0.0,
                "problem.inflow.kind": "left-edge",
                "problem.inflow.value": 1.0,
                "problem.noise.std": 0.05,
                "problem.noise.seed": 777,
                "quadrature.n_spatial": 20,
                "quadrature.n_angular": 12,
                "quadrature.n_boundary_pos": 8,
                "quadrature.n_boundary_ang": 12,
                "lagrangian.batch_interior": 48,
                "uzawa.n_outer": 10,
                "uzawa.n_inner": 300,
                "outputs.grids": ("scalar-flux", "angular-slice:0.0"),
            },
        ),
        _preset(
            "example5",
            "piecewise-constant absorber (0.1 left, 5 right of x1=0.5), unit "
            "inflow; attenuation across the interface",
            "experiment 5",
            **{
                "problem.sigma_a.kind": "split-plane",
                "problem.sigma_a.threshold": 0.5,
                "problem.sigma_a.left": 0.1,
                "problem.sigma_a.right": 5.0,
                "problem.sigma_t": 0.0,
                "problem.inflow.kind": "constant",
                "problem.inflow.value": 1.0,
                "quadrature.n_spatial": 20,
                "quadrature.n_angular": 12,
                "lagrangian.batch_interior": 48,
                "uzawa.n_outer": 10,
                "uzawa.n_inner": 400,
                "outputs.grids": ("scalar-flux",),
            },
        ),
        _preset(
            "manufactured",
            "known smooth solution sin(pi x1) sin(pi x2); derived source and "
            "trace; reports the true relative L2 error",
            "verification",
            **{
                "problem.manufactured": True,
                "problem.sigma_a.kind": "constant",
                "problem.sigma_a.value": 1.0,
                "problem.sigma_t": 0.0,
                "quadrature.n_spatial": 20,
                "quadrature.n_angular": 12,
                "lagrangian.batch_interior": 48,
                "uzawa.n_outer": 20,
                "uzawa.n_inner": 500,
                "outputs.grids": ("scalar-flux",),
            },
        ),
        Preset(
            "oracle-verify",
            "linear-basis identity checks of the multiplier iteration theory "
            "(exact inner solves; machine-precision identities)",
            "verification",
            # "mode" is config.ORACLE_VERIFY, spelled out to keep config unloaded
            tuple(sorted({"preset": "oracle-verify", "mode": "oracle-verify"}.items())),
        ),
    ]
}


def expand_preset(name, overrides=None, seed=None):
    """Expand a preset into a validated ExperimentConfig."""
    if name not in PRESETS:
        from .errors import ConfigError

        known = ", ".join(sorted(PRESETS))
        raise ConfigError([f"unknown preset '{name}' (known: {known})"])
    from .config import from_flat

    flat = dict(PRESETS[name].flat)
    if seed is not None:
        flat["seed"] = int(seed)
    if overrides:
        flat.update(overrides)
    return from_flat(flat)


def list_presets_text():
    """Stable text table: name, source, one-line description."""
    width = max(len(n) for n in PRESETS)
    swidth = max(len(p.source) for p in PRESETS.values())
    lines = []
    for name in sorted(PRESETS):
        p = PRESETS[name]
        lines.append(f"{name:<{width}}  {p.source:<{swidth}}  {p.description}")
    return "\n".join(lines)

"""Post-processing (flux, slices, discrete norms) and all file output.

Files are CSV/JSON written atomically (temp file + rename) with floats
printed via repr so they re-parse losslessly.  The metrics stream has one
row per inner optimizer step; the boundary-residual and multiplier-norm
columns carry the values recorded at the end of that row's outer step.
"""

from __future__ import annotations

import json
import os
import tempfile
from dataclasses import dataclass, field

import numpy as np

from . import kinetic_ops, network
from .errors import ConfigError, ContractViolation
from .kinetic_ops import TWO_PI, ReferenceSolution  # ReferenceSolution: re-exported

METRICS_HEADER = (
    "outer,inner,loss_total,loss_pde,loss_boundary,loss_multiplier,"
    "boundary_residual,lambda_norm"
)


@dataclass
class FieldGrid:
    nx: int
    ny: int
    values: np.ndarray
    extent: tuple

    def __post_init__(self):
        if self.nx < 2 or self.ny < 2:
            raise ContractViolation("grid needs at least 2 nodes per axis")
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != (self.nx, self.ny):
            raise ContractViolation("grid values must have shape (nx, ny)")
        if not np.all(np.isfinite(self.values)):
            raise ContractViolation("grid values must be finite")


def grid_output(entry):
    """File name and slice angle (None for the flux) of an ``outputs.grids``
    entry; a slice's name carries its angle to four decimals."""
    if entry == "scalar-flux":
        return "flux.csv", None
    try:
        angle = float(entry.split(":", 1)[1])
    except ValueError:
        angle = np.nan
    return f"slice_{angle:.4f}.csv", angle


def grid_points(nx, ny, domain):
    xs = np.linspace(domain.lo[0], domain.hi[0], nx)
    ys = np.linspace(domain.lo[1], domain.hi[1], ny)
    X, Y = np.meshgrid(xs, ys, indexing="ij")
    return np.column_stack([X.ravel(), Y.ravel()])


def scalar_flux(params, angular, nx=101, ny=101, domain=None):
    """Angular integral of the network at every grid node.

    Row r of the (grid point, angle) product is point r // K at angle
    r % K.  The rows are built and evaluated one ``network.ROW_BLOCK``
    block at a time, the blocks one ``eval_batch`` call over all rows would
    form, so the values are bitwise that call's while the product itself
    is never held: only the (points, K) values are.
    """
    from .phase_space import UNIT_SQUARE

    domain = domain or UNIT_SQUARE
    if abs(angular.weight.sum() - TWO_PI) > 1e-10:
        raise ContractViolation("angular weights must sum to 2*pi")
    pts = grid_points(nx, ny, domain)
    k = len(angular)
    u = np.empty((pts.shape[0], k))
    flat = u.reshape(-1)
    for lo in range(0, flat.size, network.ROW_BLOCK):
        point, angle = np.divmod(np.arange(lo, min(lo + network.ROW_BLOCK, flat.size)), k)
        u_block = network.eval_batch(params, pts.take(point, axis=0), angular.theta.take(angle))
        flat[lo : lo + point.size] = u_block
    values = (u @ angular.weight).reshape(nx, ny)
    extent = (domain.lo[0], domain.hi[0], domain.lo[1], domain.hi[1])
    return FieldGrid(nx, ny, values, extent)


def angular_slice(params, theta, nx=101, ny=101, domain=None):
    """Network values on the grid at one fixed direction."""
    from .phase_space import UNIT_SQUARE

    domain = domain or UNIT_SQUARE
    pts = grid_points(nx, ny, domain)
    u = network.eval_batch(params, pts, np.full(pts.shape[0], float(theta)))
    extent = (domain.lo[0], domain.hi[0], domain.lo[1], domain.hi[1])
    return FieldGrid(nx, ny, u.reshape(nx, ny), extent)


def discrete_norms(params, quad, problem, reference=None):
    """Discrete solution-space norms on the given quadrature.

    Without a reference: residual norms of the network against the problem
    data ((T+S)u - f in the interior, u - g on the inflow boundary), taken
    from the residual assembly.  With a reference: the same norms of the
    difference u - reference; the reference goes through the same assembly,
    and since T+S is linear, (T+S)(u - reference) is the difference of the
    two residuals.
    """
    w, b = quad.interior.weight, quad.boundary
    terms = kinetic_ops.interior_terms(params, quad, problem)
    if reference is None:
        resid, diff = terms["residual"], terms["u"]
        bnd = terms["u_boundary"] - problem.data.inflow(b)
    else:
        ref = kinetic_ops.interior_terms(reference, quad, problem)
        resid = terms["residual"] - ref["residual"]
        diff = terms["u"] - ref["u"]
        bnd = terms["u_boundary"] - ref["u_boundary"]
    pde_sq = float(w @ resid**2)
    l2_sq = float(w @ diff**2)
    bnd_sq = float(b.weight @ bnd**2)
    return {
        "l2_interior": np.sqrt(l2_sq),
        "pde_residual_norm": np.sqrt(pde_sq),
        "boundary_residual_norm": np.sqrt(bnd_sq),
        "v_norm": np.sqrt(pde_sq + bnd_sq),
    }


# -- file emission ------------------------------------------------------------


def _atomic_write(path, text):
    directory = os.path.dirname(os.path.abspath(path))
    try:
        os.makedirs(directory, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-emit-")
        try:
            with os.fdopen(fd, "w") as fh:
                fh.write(text)
            os.replace(tmp, path)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise
    except OSError as err:
        raise OSError(f"writing {path}: {err}") from err


def metrics_rows(state):
    """Flatten a run's histories into metrics rows (one per inner step)."""
    rows = []
    for record, trace in zip(state.outer_history, state.inner_history):
        for inner, parts in enumerate(trace):
            rows.append(
                (
                    record.outer,
                    inner,
                    parts.value,
                    parts.pde,
                    parts.boundary_penalty,
                    parts.multiplier_term,
                    record.boundary_residual,
                    record.lambda_norm,
                )
            )
    return rows


def emit_metrics(path, rows):
    lines = [METRICS_HEADER]
    for row in rows:
        outer, inner, *vals = row
        lines.append(",".join([str(int(outer)), str(int(inner))] + [repr(float(v)) for v in vals]))
    _atomic_write(path, "\n".join(lines) + "\n")


def parse_metrics(path):
    with open(path) as fh:
        header = fh.readline().strip()
        if header != METRICS_HEADER:
            raise ContractViolation(f"unexpected metrics header in {path}")
        rows = []
        for line in fh:
            parts = line.strip().split(",")
            rows.append((int(parts[0]), int(parts[1])) + tuple(float(p) for p in parts[2:]))
    return rows


def emit_grid(path, grid):
    xs = np.linspace(grid.extent[0], grid.extent[1], grid.nx).tolist()
    ys = [repr(y) for y in np.linspace(grid.extent[2], grid.extent[3], grid.ny).tolist()]
    lines = ["x1,x2,value"]
    for x, row in zip(xs, grid.values.tolist()):
        lines.extend(f"{x!r},{y},{v!r}" for y, v in zip(ys, row))
    _atomic_write(path, "\n".join(lines) + "\n")


@dataclass
class RunManifest:
    """Everything needed to reproduce a run, plus its final metrics."""

    config: dict
    version: str
    wall_clock: float
    final_metrics: dict = field(default_factory=dict)


def emit_manifest(path, manifest):
    payload = {
        "config": manifest.config,
        "version": manifest.version,
        "wall_clock": manifest.wall_clock,
        "final_metrics": manifest.final_metrics,
    }
    _atomic_write(path, json.dumps(payload, indent=2, sort_keys=True) + "\n")


def parse_manifest(path):
    """Read a manifest written by ``emit_manifest``.  A file that cannot be
    read or is not one (not JSON, not an object, a key missing, a config
    that is not an object) raises ConfigError naming the path."""
    try:
        with open(path) as fh:
            payload = json.load(fh)
    except (OSError, ValueError) as err:
        raise ConfigError([f"{path}: {err}"]) from err
    if not isinstance(payload, dict):
        raise ConfigError([f"{path}: a manifest is a JSON object, not {type(payload).__name__}"])
    missing = [key for key in ("config", "version", "wall_clock") if key not in payload]
    if missing:
        raise ConfigError([f"{path}: manifest has no '{key}'" for key in missing])
    if not isinstance(payload["config"], dict):
        raise ConfigError([f"{path}: the manifest's 'config' is not an object"])
    return RunManifest(
        config=payload["config"],
        version=payload["version"],
        wall_clock=payload["wall_clock"],
        final_metrics=payload.get("final_metrics", {}),
    )

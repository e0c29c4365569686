"""Post-processing (flux, slices, discrete norms) and all file output.

Files are CSV/JSON streamed through ``atomic_io.atomic_open`` (temp file +
rename) with floats printed via repr so they re-parse losslessly.  The
metrics stream has one row per inner optimizer step; the boundary-residual
and multiplier-norm columns carry the values recorded at the end of that
row's outer step.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from . import kinetic_ops, network
from .atomic_io import atomic_open
from .errors import ConfigError, ContractViolation
from .kinetic_ops import TWO_PI, ReferenceSolution  # ReferenceSolution: re-exported

METRICS_HEADER = (
    "outer,inner,loss_total,loss_pde,loss_boundary,loss_multiplier,"
    "boundary_residual,lambda_norm"
)


@dataclass
class FieldGrid:
    """Values on the nodes of an (nx, ny) grid, nx and ny its ``values.shape``,
    spanning ``extent`` = (x1 lo, x1 hi, x2 lo, x2 hi)."""

    values: np.ndarray
    extent: tuple

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.ndim != 2 or min(self.values.shape) < 2:
            raise ContractViolation("grid needs at least 2 nodes per axis")
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


# Grid points per flux GEMV: on one BLAS thread, a GEMV over a multiple of
# this many rows rounds each row as one GEMV over all points does (checked
# for K = 1..40 and K up to 257 on 37 x 29 and 101 x 101 grids).
GEMV_POINTS = 32


def _grid_values(params, theta, nx, ny, domain, reduce):
    """The grid of ``reduce`` applied to the network's values at every (grid
    node, direction of ``theta``) pair: ``reduce`` maps a block's (points, K)
    values to one value per point.

    The product is streamed by whole grid points, one block at a time: a
    multiple of ``GEMV_POINTS`` points, as many as fill ``network.ROW_BLOCK``
    rows (``GEMV_POINTS`` when fewer do); the last block holds what is
    left.  A block's rows are ``network.embed`` of its points against the
    directions, evaluated by ``eval_batch``.  A row's value does not depend
    on its pass, so the values are bitwise one ``eval_batch`` call's over
    all rows, and a block's ``@ weight`` is bitwise one GEMV's over all
    points.  Neither the product nor its (points, K) values are ever held:
    only one block and the per-point results are.
    """
    from .phase_space import UNIT_SQUARE, node_count

    nx, ny = node_count(nx, "grid nx", least=2), node_count(ny, "grid ny", least=2)
    domain = domain or UNIT_SQUARE
    pts, k = grid_points(nx, ny, domain), theta.size
    per_block = max(network.ROW_BLOCK // k // GEMV_POINTS, 1) * GEMV_POINTS
    values = np.empty(pts.shape[0])
    for lo in range(0, pts.shape[0], per_block):
        rows = network.embed(pts[lo : lo + per_block, None], theta).reshape(-1, network.INPUT_WIDTH)
        values[lo : lo + per_block] = reduce(network.eval_batch(params, rows).reshape(-1, k))
    extent = (domain.lo[0], domain.hi[0], domain.lo[1], domain.hi[1])
    return FieldGrid(values.reshape(nx, ny), extent)


def scalar_flux(params, angular, nx=101, ny=101, domain=None):
    """Angular integral of the network at every grid node: the grid stream at
    the rule's angles, each block reduced to its weighted sums as it comes."""
    if abs(angular.weight.sum() - TWO_PI) > 1e-10:
        raise ContractViolation("angular weights must sum to 2*pi")
    return _grid_values(params, angular.theta, nx, ny, domain, lambda u: u @ angular.weight)


def angular_slice(params, theta, nx=101, ny=101, domain=None):
    """Network values on the grid at one fixed direction: the grid stream
    with that one direction."""
    return _grid_values(params, np.array([float(theta)]), nx, ny, domain, lambda u: u[:, 0])


def discrete_norms(params, quad, problem, reference=None):
    """Discrete solution-space norms on the given quadrature.

    Without a reference: residual norms of the network against the problem
    data ((T+S)u - f in the interior, u - g on the inflow boundary), taken
    from the residual assembly.  With a reference: the same norms of the
    difference u - reference; the reference goes through the same assembly,
    and since T+S is linear, (T+S)(u - reference) is the difference of the
    two residuals.  The rows are built once for both walks.
    """
    w, b = quad.interior.weight, quad.boundary
    rows = kinetic_ops.interior_rows(quad, problem)
    terms = rows.whole(params)
    if reference is None:
        resid, diff = terms["residual"], terms["u"]
        bnd = terms["u_boundary"] - problem.data.inflow(b)
    else:
        ref = rows.whole(reference)
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


def metrics_rows(state):
    """Flatten a run's histories into metrics rows (one per inner step)."""
    rows = []
    for outer, (record, trace) in enumerate(zip(state.outer_history, state.inner_history)):
        for inner, parts in enumerate(trace):
            rows.append(
                (
                    outer,
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
    """Write the metrics stream, one row's line at a time."""
    with atomic_open(path) as fh:
        fh.write(METRICS_HEADER + "\n")
        for outer, inner, *vals in rows:
            fh.write(",".join([str(int(outer)), str(int(inner))] + [repr(float(v)) for v in vals]) + "\n")


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
    """Write one ``x1,x2,value`` line per node, one x1 row's lines at a time."""
    nx, ny = grid.values.shape
    xs = np.linspace(grid.extent[0], grid.extent[1], nx).tolist()
    ys = [repr(y) for y in np.linspace(grid.extent[2], grid.extent[3], ny).tolist()]
    with atomic_open(path) as fh:
        fh.write("x1,x2,value\n")
        for x, row in zip(xs, grid.values):
            fh.write("".join(f"{x!r},{y},{v!r}\n" for y, v in zip(ys, row.tolist())))


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
    with atomic_open(path) as fh:
        fh.write(json.dumps(payload, indent=2, sort_keys=True) + "\n")


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

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
from .errors import ContractViolation
from .kinetic_ops import TWO_PI

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
    quantity: str

    def __post_init__(self):
        if self.nx < 2 or self.ny < 2:
            raise ContractViolation("grid needs at least 2 nodes per axis")
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != (self.nx, self.ny):
            raise ContractViolation("grid values must have shape (nx, ny)")
        if not np.all(np.isfinite(self.values)):
            raise ContractViolation("grid values must be finite")


def grid_points(nx, ny, domain):
    xs = np.linspace(domain.lo[0], domain.hi[0], nx)
    ys = np.linspace(domain.lo[1], domain.hi[1], ny)
    X, Y = np.meshgrid(xs, ys, indexing="ij")
    return np.column_stack([X.ravel(), Y.ravel()])


def scalar_flux(params, angular, nx=101, ny=101, domain=None):
    """Angular integral of the network at every grid node."""
    from .phase_space import UNIT_SQUARE

    domain = domain or UNIT_SQUARE
    if abs(angular.weight.sum() - TWO_PI) > 1e-10:
        raise ContractViolation("angular weights must sum to 2*pi")
    pts = grid_points(nx, ny, domain)
    k = len(angular)
    x = np.repeat(pts, k, axis=0)
    theta = np.tile(angular.theta, pts.shape[0])
    u = network.eval_batch(params, x, theta, network.embedding_for(params))
    values = (u.reshape(pts.shape[0], k) @ angular.weight).reshape(nx, ny)
    extent = (domain.lo[0], domain.hi[0], domain.lo[1], domain.hi[1])
    return FieldGrid(nx, ny, values, extent, "scalar-flux")


def angular_slice(params, theta, nx=101, ny=101, domain=None):
    """Network values on the grid at one fixed direction."""
    from .phase_space import UNIT_SQUARE

    domain = domain or UNIT_SQUARE
    pts = grid_points(nx, ny, domain)
    u = network.eval_batch(
        params, pts, np.full(pts.shape[0], float(theta)), network.embedding_for(params)
    )
    extent = (domain.lo[0], domain.hi[0], domain.lo[1], domain.hi[1])
    return FieldGrid(nx, ny, u.reshape(nx, ny), extent, f"angular-slice:{theta}")


@dataclass
class ReferenceSolution:
    """Exact solution with its directional derivative, for error norms."""

    value: object  # (x, theta) -> values
    directional: object  # (x, theta) -> omega . grad_x at (x, theta)


def _ts_apply(values_flat, dir_flat, sigma_flat, sigma_t, kernel_mat, angular, n_blocks):
    umat = values_flat.reshape(n_blocks, len(angular))
    mean = umat @ (kernel_mat * angular.weight[None, :]).T / TWO_PI
    return dir_flat + (sigma_flat + sigma_t) * values_flat - sigma_t * mean.ravel()


def discrete_norms(params, quad, problem, reference=None, outflow=None, want_triple=False):
    """Discrete solution-space norms on the given quadrature.

    Without a reference: residual norms of the network against the problem
    data ((T+S)u - f in the interior, u - g on the inflow boundary).  With
    a reference: the same norms applied to the difference u - reference.
    The triple norm needs outflow nodes (mirror of the inflow sampler).
    """
    if want_triple and outflow is None:
        raise ContractViolation("triple norm requested without outflow nodes")
    interior = quad.interior
    angular = quad.angular
    emb = network.embedding_for(params)

    b = quad.boundary

    if interior.blocked:
        terms = kinetic_ops.blocked_terms(params, interior.spatial_x, angular, problem, boundary=b)
        x, theta = terms["x"], terms["theta"]
        n_blocks = interior.spatial_x.shape[0]
    else:
        terms = kinetic_ops.sample_terms(
            params, interior.x, interior.theta, angular, problem, boundary=b
        )
        x, theta = interior.x, interior.theta
        n_blocks = None
    w = interior.weight
    u, du, u_b = terms["u"], terms["du"], terms["u_boundary"]

    if reference is None:
        diff, ddir = u, du
        source = problem.data.source(x, theta)
        if interior.blocked:
            ts = _ts_apply(
                u, du, terms["sigma"], problem.sigma_t, terms["kernel_matrix"], angular, n_blocks
            )
        else:
            ts = terms["residual"] + source  # residual already is (T+S)u - f
        pde_sq = float(w @ (ts - source) ** 2)
        l2_sq = float(w @ u**2)
        bnd_sq = float(b.weight @ (u_b - problem.data.inflow(b)) ** 2)
    else:
        ref = np.asarray(reference.value(x, theta), dtype=float)
        refd = np.asarray(reference.directional(x, theta), dtype=float)
        diff = u - ref
        ddir = du - refd
        if interior.blocked:
            ts = _ts_apply(
                diff, ddir, terms["sigma"], problem.sigma_t, terms["kernel_matrix"], angular, n_blocks
            )
        else:
            rows = terms["rows"]
            dmat = terms["u_matrix"] - np.asarray(
                reference.value(
                    np.repeat(x, len(angular), axis=0), np.tile(angular.theta, x.shape[0])
                )
            ).reshape(x.shape[0], len(angular))
            mean = (rows * angular.weight[None, :] * dmat).sum(axis=1) / TWO_PI
            ts = ddir + (terms["sigma"] + problem.sigma_t) * diff - problem.sigma_t * mean
        pde_sq = float(w @ ts**2)
        l2_sq = float(w @ diff**2)
        ref_b = np.asarray(reference.value(b.x, b.theta), dtype=float)
        bnd_sq = float(b.weight @ (u_b - ref_b) ** 2)

    result = {
        "l2_interior": np.sqrt(l2_sq),
        "pde_residual_norm": np.sqrt(pde_sq),
        "boundary_residual_norm": np.sqrt(bnd_sq),
        "v_norm": np.sqrt(pde_sq + bnd_sq),
        "triple_norm": None,
    }
    if want_triple:
        grad_sq = float(w @ ddir**2)
        u_out = network.eval_batch(params, outflow.x, outflow.theta, emb)
        if reference is None:
            out_sq = float(outflow.weight @ u_out**2)
            in_sq = float(b.weight @ u_b**2)
        else:
            out_sq = float(
                outflow.weight
                @ (u_out - np.asarray(reference.value(outflow.x, outflow.theta))) ** 2
            )
            in_sq = bnd_sq
        result["triple_norm"] = np.sqrt(l2_sq + grad_sq + out_sq + in_sq)
    return result


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
    xs = np.linspace(grid.extent[0], grid.extent[1], grid.nx)
    ys = np.linspace(grid.extent[2], grid.extent[3], grid.ny)
    lines = ["x1,x2,value"]
    for i in range(grid.nx):
        for j in range(grid.ny):
            lines.append(f"{float(xs[i])!r},{float(ys[j])!r},{float(grid.values[i, j])!r}")
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
    with open(path) as fh:
        payload = json.load(fh)
    return RunManifest(
        config=payload["config"],
        version=payload["version"],
        wall_clock=payload["wall_clock"],
        final_metrics=payload.get("final_metrics", {}),
    )

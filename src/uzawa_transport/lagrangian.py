"""Discrete Lagrangian: residual energy, boundary penalty, multiplier term.

The objective is
    1/2 sum_w (residual)^2  +  gamma/2 sum_b w_b (u-g)^2  -  sum_b w_b lambda (u-g),
assembled on a quadrature set.  The multiplier lives on a frozen copy of
the inflow-boundary nodes; interior nodes may be subsampled (tensor rules
subsample whole spatial blocks so the angular coupling stays intact) or,
for Monte Carlo rules, redrawn per step by the caller.  The rows of an
evaluation are built once (``kinetic_ops.interior_rows``), then walked in
tiles, row ranges of at most ``TILE_ROWS`` stacked network rows (value
and tangent rows): runs of whole blocks or samples, which the scattering
sum never couples, then of boundary nodes.  Each tile gets one network
pass and, for a gradient, one reverse sweep at once, from a value seed
per row and a tangent seed per point, with the scattering cross-terms
(``kinetic_ops.scattering_adjoint``) in the value seeds.  Residuals and
mismatches fill full-length arrays and each part is reduced once, so
only the gradient's summation order depends on the tiling.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import kinetic_ops, network
from .errors import ContractViolation
from .phase_space import TENSOR_GAUSS, InteriorNodes

# Stacked network rows (value + tangent) per tile of ``_evaluate``: a 64-wide
# layer array of 1,024 rows is 512 KB, inside a 2 MB L2 cache (CHANGES.md).
TILE_ROWS = 1024


@dataclass
class LagrangianConfig:
    gamma: float = 1.0
    batch_interior: int | None = None
    resample: bool = True

    def __post_init__(self):
        if self.gamma < 0:
            raise ContractViolation("boundary stabilization weight must be >= 0")
        if self.batch_interior is not None and self.batch_interior < 1:
            raise ContractViolation("interior batch size must be >= 1")


@dataclass
class MultiplierField:
    """Multiplier values pinned to a frozen inflow-boundary node set."""

    values: np.ndarray
    nodes: object

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != (len(self.nodes),):
            raise ContractViolation("one multiplier value per boundary node")

    def norm(self):
        """Discrete boundary L2 norm of the multiplier."""
        return float(np.sqrt(self.nodes.weight @ self.values**2))


def constant_multiplier(nodes, value=0.0):
    return MultiplierField(np.full(len(nodes), float(value)), nodes)


@dataclass
class LagrangianParts:
    """The three objective terms; ``mismatch`` is u - g on the boundary nodes,
    kept by ``assemble`` only, so inner-step traces hold no per-node arrays."""

    pde: float
    boundary_penalty: float
    multiplier_term: float
    mismatch: np.ndarray | None = None

    @property
    def value(self):
        return self.pde + self.boundary_penalty + self.multiplier_term


def _check_registry(multiplier, quad):
    if multiplier.nodes is quad.boundary:
        return
    same = (
        len(multiplier.nodes) == len(quad.boundary)
        and np.array_equal(multiplier.nodes.x, quad.boundary.x)
        and np.array_equal(multiplier.nodes.theta, quad.boundary.theta)
    )
    if not same:
        raise ContractViolation("multiplier registry does not match the boundary nodes")


def _tiles(quad):
    """(interior rows, boundary nodes) slices of each tile in pass order: runs
    of whole units, then of boundary nodes; at most ``TILE_ROWS`` stacked
    network rows or one unit each.  A unit is a tensor block, K rows and K
    tangent rows, or a Monte Carlo sample with K slice rows and a tangent row."""
    k, n, n_b = len(quad.angular), len(quad.interior), len(quad.boundary)
    rows, unit = (k, 2 * k) if quad.scheme == TENSOR_GAUSS else (1, k + 2)
    per = rows * max(1, TILE_ROWS // unit)
    return [(slice(lo, min(lo + per, n)), slice(0, 0)) for lo in range(0, n, per)] + [
        (slice(n, n), slice(lo, min(lo + TILE_ROWS, n_b))) for lo in range(0, n_b, TILE_ROWS)
    ]


def _evaluate(params, multiplier, quad, problem, config, need_grad):
    _check_registry(multiplier, quad)
    b, w = quad.boundary, quad.interior.weight
    g = problem.data.inflow(b)  # on the full frozen set: its cache and noise draw are per set
    # the rows once for all tiles: a sample's kernel row rounds by its batch
    rows, blocked = kinetic_ops.interior_rows(quad, problem), quad.scheme == TENSOR_GAUSS
    r, mismatch = np.empty(len(w)), np.empty(len(b))
    grad = np.zeros(params.n_params) if need_grad else None
    for points, nodes in _tiles(quad):
        terms = rows.terms(params, points, nodes, grad is not None)
        r[points], mismatch[nodes] = terms["residual"], terms["u_boundary"] - g[nodes]
        if grad is None or not (np.isfinite(r[points]).all() and np.isfinite(mismatch[nodes]).all()):
            grad = None  # a reverse sweep would only spread the non-finite part
            continue
        # value seeds in pass order: interior, Monte Carlo slices, boundary rows
        wr, krows = w[points] * r[points], terms["kernel_rows"]
        scat = kinetic_ops.scattering_adjoint(wr.reshape(-1, krows.shape[-2]), krows, quad.angular.weight)
        seeds = [wr * (terms["sigma"] + problem.sigma_t), -problem.sigma_t * scat.ravel()]
        if blocked:  # the slices are the interior rows themselves
            seeds = [seeds[0] + seeds[1]]
        seeds.append(b.weight[nodes] * (config.gamma * mismatch[nodes] - multiplier.values[nodes]))
        # popped, so a pass that grows the workspace does not keep this one alive
        grad += network.vjp_jvp_batch(params, terms.pop("cache"), np.concatenate(seeds), wr)
    pde = 0.5 * float(w @ r**2)
    penalty = 0.5 * config.gamma * float(b.weight @ mismatch**2)
    mult_term = -float((b.weight * multiplier.values) @ mismatch)
    return LagrangianParts(pde, penalty, mult_term, None if need_grad else mismatch), grad


def assemble(params, multiplier, quad, problem, config):
    """Objective value split into its three parts, with the boundary mismatch."""
    parts, _ = _evaluate(params, multiplier, quad, problem, config, need_grad=False)
    return parts


def assemble_with_gradient(params, multiplier, quad, problem, config):
    """Value parts and gradient, each tile swept right after its own pass.
    Once a tile's residuals or boundary mismatch are not finite, no further
    sweep runs and the gradient is None; the parts are still assembled."""
    return _evaluate(params, multiplier, quad, problem, config, need_grad=True)


def subsample(quad, batch_interior, step_seed):
    """Interior subsample without replacement; boundary nodes kept intact.

    ``batch_interior`` whole row blocks are drawn and kept in order: K-row
    spatial blocks for tensor interiors, single samples for Monte Carlo.
    Weights are rescaled by the inverse inclusion probability, which makes
    every weighted sum exactly unbiased; for the constant-weight Monte
    Carlo interiors this also preserves the total measure exactly.  The
    multiplier registry is frozen, so boundary nodes are never subsampled.
    """
    interior = quad.interior
    k = len(quad.angular) if quad.scheme == TENSOR_GAUSS else 1
    n_full = len(interior) // k
    if batch_interior is None or batch_interior == n_full:
        return quad
    if batch_interior > n_full:
        raise ContractViolation("interior batch exceeds the available nodes")
    rng = np.random.default_rng(step_seed)
    idx = np.sort(rng.choice(n_full, size=batch_interior, replace=False))
    rows = (idx[:, None] * k + np.arange(k)).ravel()
    scale = n_full / batch_interior
    sub = InteriorNodes(interior.x[rows], interior.theta[rows], interior.weight[rows] * scale)
    return replace(quad, interior=sub)

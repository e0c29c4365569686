"""Discrete Lagrangian: residual energy, boundary penalty, multiplier term.

The objective is
    1/2 sum_w (residual)^2  +  gamma/2 sum_b w_b (u-g)^2  -  sum_b w_b lambda (u-g),
assembled on a quadrature set.  The multiplier lives on a frozen copy of
the inflow-boundary nodes; interior nodes may be subsampled (tensor rules
subsample whole spatial blocks so the angular coupling stays intact) or,
for Monte Carlo rules, redrawn per step by the caller.  One network pass
covers the interior points with their tangent rail, the Monte Carlo
scattering slices and the boundary nodes, and one reverse sweep over its
cache produces the flat parameter gradient from a value seed per row and
a tangent seed per interior point, with the angular cross-terms of the
scattering sum (``kinetic_ops.scattering_adjoint``) in the value seeds.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import kinetic_ops, network
from .errors import ContractViolation
from .phase_space import TENSOR_GAUSS, InteriorNodes


@dataclass
class LagrangianConfig:
    gamma: float = 1.0
    include_source: bool = True
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


def _problem_for(problem, config):
    if config.include_source:
        return problem
    return replace(problem, data=replace(problem.data, f=None))


def _evaluate(params, multiplier, quad, problem, config, need_grad):
    _check_registry(multiplier, quad)
    problem = _problem_for(problem, config)
    b = quad.boundary
    terms = kinetic_ops.interior_terms(params, quad, problem, need_grad)
    w = quad.interior.weight
    r = terms["residual"]
    pde = 0.5 * float(w @ r**2)
    mismatch = terms["u_boundary"] - problem.data.inflow(b)
    penalty = 0.5 * config.gamma * float(b.weight @ mismatch**2)
    mult_term = -float((b.weight * multiplier.values) @ mismatch)
    if not need_grad:
        return LagrangianParts(pde, penalty, mult_term, mismatch), None
    parts = LagrangianParts(pde, penalty, mult_term)
    if not np.isfinite([pde, penalty, mult_term]).all():
        return parts, None  # a reverse sweep would only spread the non-finite part

    # value seeds in pass order: interior, Monte Carlo slices, boundary rows
    wr = w * r
    rows = terms["kernel_rows"]
    scat_seed = -problem.sigma_t * kinetic_ops.scattering_adjoint(
        wr.reshape(-1, rows.shape[-2]), rows, quad.angular.weight
    ).ravel()
    seeds = [wr * (terms["sigma"] + problem.sigma_t)]
    if quad.scheme == TENSOR_GAUSS:  # the slices are the interior rows themselves
        seeds[0] += scat_seed
    else:
        seeds.append(scat_seed)
    seeds.append(b.weight * (config.gamma * mismatch - multiplier.values))
    grad = network.vjp_jvp_batch(params, terms["cache"], np.concatenate(seeds), wr)
    return parts, grad


def assemble(params, multiplier, quad, problem, config):
    """Objective value split into its three parts, with the boundary mismatch."""
    parts, _ = _evaluate(params, multiplier, quad, problem, config, need_grad=False)
    return parts


def assemble_with_gradient(params, multiplier, quad, problem, config):
    """Value parts and gradient from one shared forward pass; the gradient
    is None, and the reverse sweep skipped, when a part is not finite."""
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

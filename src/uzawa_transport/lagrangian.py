"""Discrete Lagrangian: residual energy, boundary penalty, multiplier term.

The objective is
    1/2 sum_w (residual)^2  +  gamma/2 sum_b w_b (u-g)^2  -  sum_b w_b lambda (u-g),
assembled on a quadrature set.  The multiplier lives on a frozen copy of
the inflow-boundary nodes; ``subsample`` gives every inner step its
interior: whole spatial blocks of a tensor rule, so the angular coupling
stays intact, or a fresh Monte Carlo draw.  An evaluation
walks the tiles of its ``kinetic_ops.PhaseRows``, which lay out each pass
and its reverse-sweep seeds, and fills full-length residual and mismatch
arrays; each part is reduced once over them, so only the gradient's
summation order depends on the tiling.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import ClassVar

import numpy as np

from . import kinetic_ops, phase_space
from .errors import ContractViolation
from .phase_space import MONTE_CARLO, PhaseNodes, node_count


@dataclass
class LagrangianConfig:
    gamma: float = 1.0
    batch_interior: int | None = None
    # every Monte Carlo step redraws its interior; perfbench/child.py's
    # ``_fd_gate`` reads this to draw its batch as the run does
    resample: ClassVar[bool] = True

    def __post_init__(self):
        if not 0 <= self.gamma < np.inf:  # NaN fails too
            raise ContractViolation("boundary stabilization weight must be finite and >= 0")
        if self.batch_interior is not None:
            node_count(self.batch_interior, "interior batch size")


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


def _evaluate(params, multiplier, quad, problem, config, need_grad):
    _check_registry(multiplier, quad)
    b, w = quad.boundary, quad.interior.weight
    g = problem.data.inflow(b)  # on the full frozen set: its cache and noise draw are per set
    # the rows once for all tiles: a sample's kernel row rounds by its batch
    rows = kinetic_ops.interior_rows(quad, problem)
    r, mismatch = np.empty(len(w)), np.empty(len(b))
    grad = np.zeros(params.n_params) if need_grad else None
    for points, nodes in rows.tiles():
        terms = rows.terms(params, points, nodes, grad is not None)
        r[points], mismatch[nodes] = terms["residual"], terms["u_boundary"] - g[nodes]
        if grad is None or not (np.isfinite(r[points]).all() and np.isfinite(mismatch[nodes]).all()):
            grad = None  # a reverse sweep would only spread the non-finite part
            continue
        boundary_seed = b.weight[nodes] * (config.gamma * mismatch[nodes] - multiplier.values[nodes])
        grad += rows.sweep(params, terms, w[points] * r[points], boundary_seed)
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
    """The interior of one inner step, drawn from ``step_seed``; the boundary
    nodes are kept intact, since the multiplier registry is frozen.

    A Monte Carlo interior is redrawn: ``batch_interior`` fresh iid points
    (the full set's count when None), weighted to the total measure
    |D|*2*pi.  A tensor interior keeps ``batch_interior`` of its K-row
    spatial blocks, drawn without replacement and kept in order, with
    weights rescaled by the inverse inclusion probability, which makes
    every weighted sum exactly unbiased; None keeps them all.
    """
    interior = quad.interior
    if quad.scheme == MONTE_CARLO:
        n = len(interior) if batch_interior is None else batch_interior
        return replace(quad, interior=phase_space.mc_interior(quad.domain, n, step_seed))
    k = len(quad.angular)
    n_full = len(interior) // k
    if batch_interior is None or node_count(batch_interior, "interior batch", n_full) == n_full:
        return quad
    rng = np.random.default_rng(step_seed)
    idx = np.sort(rng.choice(n_full, size=batch_interior, replace=False))
    rows = (idx[:, None] * k + np.arange(k)).ravel()
    scale = n_full / batch_interior
    sub = PhaseNodes(interior.x[rows], interior.theta[rows], interior.weight[rows] * scale)
    return replace(quad, interior=sub)

"""Outer multiplier ascent wrapped around inner stochastic minimization.

The multiplier starts at zero on every frozen boundary node.  Each outer
step minimizes the discrete Lagrangian over the network parameters for a
fixed multiplier (a fixed number of Adam steps, parameters warm-started
from the previous outer step), then moves the multiplier along the
boundary mismatch:

    lambda(b) <- lambda(b) - rho * (u(b) - g(b))   on every frozen node.

The minus sign is the ascent direction of the saddle objective in the
multiplier, and u - g is read from the full-set ``lagrangian.assemble``
pass that also gives the outer record's loss parts.  The outer loop is strictly sequential; all randomness is
drawn from seeds keyed by (run seed, outer index, inner index), so a run
is reproducible bit for bit in single-threaded mode.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from . import lagrangian as lagr
from . import network
from .errors import ContractViolation, NumericalAbort
from .lagrangian import MultiplierField


@dataclass
class UzawaConfig:
    rho: float = 1.0
    n_outer: int = 10
    n_inner: int = 200
    learning_rate: float = 1e-3

    def __post_init__(self):
        # the checks of config validation, written so that NaN fails each one
        if not (math.isfinite(self.rho) and math.isfinite(self.learning_rate)):
            raise ContractViolation("rho and learning_rate must be finite")
        if not self.rho > 0:
            raise ContractViolation("multiplier step rho must be positive")
        if self.n_outer < 1 or self.n_inner < 1:
            raise ContractViolation("iteration counts must be >= 1")
        if not self.learning_rate > 0:
            raise ContractViolation("learning rate must be positive")


class Adam:
    """Adam with its usual decay rates and denominator floor."""

    beta1, beta2, eps = 0.9, 0.999, 1e-8

    def __init__(self, lr):
        self.lr = lr
        self.m = None
        self.v = None
        self.t = 0

    def step(self, theta, grad):
        if self.m is None:
            self.m = np.zeros_like(theta)
            self.v = np.zeros_like(theta)
        self.t += 1
        self.m = self.beta1 * self.m + (1.0 - self.beta1) * grad
        self.v = self.beta2 * self.v + (1.0 - self.beta2) * grad * grad
        m_hat = self.m / (1.0 - self.beta1**self.t)
        v_hat = self.v / (1.0 - self.beta2**self.t)
        return theta - self.lr * m_hat / (np.sqrt(v_hat) + self.eps)


@dataclass
class OuterRecord:
    loss_parts: lagr.LagrangianParts
    boundary_residual: float
    lambda_norm: float


@dataclass
class RunState:
    params: network.MlpParams
    multiplier: MultiplierField
    inner_history: list = field(default_factory=list)  # per outer: list of parts
    outer_history: list = field(default_factory=list)  # OuterRecord per outer, in order
    initial_boundary_residual: float = float("nan")


def boundary_residual(nodes, mismatch):
    """Discrete inflow-trace mismatch norm ||u - g|| from mismatch = u - g."""
    return float(np.sqrt(nodes.weight @ mismatch**2))


def multiplier_update(multiplier, mismatch, rho):
    """One ascent step on the frozen boundary nodes, mismatch = u - g there."""
    if not rho > 0:  # NaN fails it too
        raise ContractViolation("multiplier step rho must be positive")
    return MultiplierField(multiplier.values - rho * mismatch, multiplier.nodes)


def _check_finite(where, named):
    """Raise the abort naming the first non-finite (name, value) pair and ``where``."""
    for name, value in named:
        if not np.all(np.isfinite(value)):
            raise NumericalAbort(f"non-finite {name} at {where}")


def _part_values(parts):
    names = ("pde", "boundary_penalty", "multiplier_term")
    return [(f"loss part '{name}'", getattr(parts, name)) for name in names]


def inner_minimize(state, quad, problem, lagr_cfg, config, optimizer, outer, seed=0):
    """Exactly n_inner optimizer steps on the Lagrangian; returns the trace.

    Ends the training phase: the kernel workspace of the steps is released,
    so the outer pass that follows builds its rows without it."""
    params = state.params
    trace = []
    for m in range(config.n_inner):
        where = f"outer step {outer}, inner step {m}"
        batch = lagr.subsample(quad, lagr_cfg.batch_interior, [seed, outer, m])
        # an overflow here is reported once, as a named abort
        with np.errstate(over="ignore", invalid="ignore"):
            parts, grad = lagr.assemble_with_gradient(
                params, state.multiplier, batch, problem, lagr_cfg
            )
            _check_finite(where, [*_part_values(parts), ("gradient", grad)])
            theta = optimizer.step(params.flat, grad)
        _check_finite(where, [("parameters after the optimizer step", theta)])
        params = replace(params, flat=theta)
        trace.append(parts)
    network.release_workspace()
    state.params = params
    return trace


def run(problem, quad, params0, config, lagr_cfg, seed=0):
    """Full iteration: returns the final state with per-step histories."""
    b = quad.boundary
    state = RunState(params=params0, multiplier=MultiplierField(np.zeros(len(b)), b))
    with np.errstate(over="ignore", invalid="ignore"):
        u0 = network.eval_batch(params0, problem.boundary_rows(b))
        state.initial_boundary_residual = boundary_residual(b, u0 - problem.data.inflow(b))
    optimizer = Adam(config.learning_rate)
    for k in range(config.n_outer):
        trace = inner_minimize(state, quad, problem, lagr_cfg, config, optimizer, k, seed)
        with np.errstate(over="ignore", invalid="ignore"):
            full_parts = lagr.assemble(state.params, state.multiplier, quad, problem, lagr_cfg)
            br = boundary_residual(b, full_parts.mismatch)
            state.multiplier = multiplier_update(state.multiplier, full_parts.mismatch, config.rho)
            record = OuterRecord(full_parts, br, state.multiplier.norm())
        named = [("boundary residual", br), ("multiplier norm", record.lambda_norm)]
        _check_finite(f"outer step {k}", _part_values(full_parts) + named)
        state.inner_history.append(trace)
        state.outer_history.append(record)
    return state


def check_strong_regime(sigma_a, sigma_t, rho, gamma):
    """Absorption-dominance verdict, a bool: True when scattering is below a
    quarter of absorption and 0 < rho < 2*gamma - sigma_a - sqrt(sigma_a^2 - 16*sigma_t^2).

    The step bound is sufficient, not sharp: ``linear_oracle.strong_regime_constant``
    is positive exactly when sigma_t < sigma_a / 4 and
    rho < 2*gamma - sigma_a + sqrt(sigma_a^2 - 16*sigma_t^2)."""
    if not all(math.isfinite(v) and v >= 0 for v in (sigma_a, sigma_t, rho, gamma)):
        raise ContractViolation("regime parameters must be finite and nonnegative")
    if not sigma_t < sigma_a / 4.0:  # sigma_t >= 0, so sigma_a = 0 ends here
        return False
    return bool(0.0 < rho < 2.0 * gamma - sigma_a - math.sqrt(sigma_a**2 - 16.0 * sigma_t**2))

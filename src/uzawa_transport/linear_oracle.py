"""The same multiplier iteration on a small linear basis, solved exactly.

Trial space: tensor products of {1, x1, x2, x1*x2, x1^2, x2^2} with
{1, cos(theta), sin(theta)} (18 functions).  The advection of each basis
function is its own closed-form derivative and its scattering is the
solver's ``kinetic_ops.scattering_apply`` on the angular factor, so the
inner minimization is an 18x18 normal-equation solve and every quantity in
the iteration identities can be computed independently of the network path.

All inner products use one frozen high-order tensor quadrature.  Because
the matrices, the iterates, and the saddle point are built from the same
discrete inner products, the residual identity, the multiplier distance
recursion, and the telescoping bound hold to solver precision at every
iterate; this is what the acceptance identity suite checks.

The multiplier lives on the frozen inflow nodes, starts at 0 as in
``uzawa.run``, and is stepped by the solver's own
``uzawa.multiplier_update``.  The updates only add traces of the basis, so
the reference multiplier is the unique fixed point inside the trace image,
computed by one boundary-mass solve.  A run keeps, per iterate and never
the multiplier: c_k, ||lambda_k - lambda*||_w, the moment
trace' W (lambda_k - lambda*), and with e_k = c_k - c* the energies
e_k' pde_gram e_k and e_k' boundary_mass e_k (= ||trace e_k||_w^2) and the
triple norm.  Each identity is an array expression in these records, with
<dlam, trace e>_w = moment . e.

The boundary side is factored per edge as well.  The inflow rule orders its
nodes by edge, then angle, then position, so on edge e the trace of the
coefficients C (3 x 6) is the 32 x 32 block A_e C P_e' of angular factors
at the edge's angles and polynomials at its positions.  The trace and its
adjoint (``boundary_values``, ``trace_adjoint``) are stacked products with
these factors and build the boundary Gram column by column; no 4,096 x 18
table of the basis at the inflow nodes is formed.  The outflow rule is the
inflow rule with omega turned to -omega at the same positions and weights,
so the outflow Gram is the inflow Gram with the cos and sin signs flipped.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import uzawa
from .errors import ContractViolation, IllConditionedSystem
from .kinetic_ops import isotropic_kernel, scattering_apply
from .lagrangian import MultiplierField
from .phase_space import (
    UNIT_SQUARE,
    PhaseNodes,
    angular_rule,
    gauss_interval,
    tensor_boundary,
)

COND_LIMIT = 1e12

_N_POLY = 6
_N_ANG = 3


def _poly_values(x):
    one = np.ones(x.shape[0])
    return np.column_stack([one, x[:, 0], x[:, 1], x[:, 0] * x[:, 1], x[:, 0] ** 2, x[:, 1] ** 2])


def _poly_gradients(x):
    n = x.shape[0]
    zero = np.zeros(n)
    one = np.ones(n)
    gx = np.column_stack([zero, one, zero, x[:, 1], 2.0 * x[:, 0], zero])
    gy = np.column_stack([zero, zero, one, x[:, 0], zero, 2.0 * x[:, 1]])
    return gx, gy


def _angular_values(theta):
    return np.column_stack([np.ones(theta.size), np.cos(theta), np.sin(theta)])


def _tensor_gram(ang, ang_weight, poly, poly_weight):
    """Gram over a product rule of the functions sum_j ang[:, j, a] poly[:, j, p]
    (column a * _N_POLY + p): sum over j, k of the Kronecker product of the
    angular factor Gram of (j, k) with the spatial one."""
    a = np.einsum("t,tja,tkb->jkab", ang_weight, ang, ang)
    p = np.einsum("s,sjp,skq->jkpq", poly_weight, poly, poly)
    return np.einsum("jkab,jkpq->apbq", a, p).reshape(_N_ANG * _N_POLY, _N_ANG * _N_POLY)


@dataclass
class LinearTrialSpace:
    """Frozen Gram-type matrices of the 18-function trial space.

    The interior rule, 32^2 Gauss points times 64 angles, is a product
    rule, and (T+S) of a basis function is a sum of products of an angular
    factor (omega_1, omega_2, or absorption plus ``scattering_apply`` of
    the angular basis function) and a spatial one (d/dx1, d/dx2 or the
    polynomial itself).  So the interior Grams (``pde_gram``, ``mass``,
    ``advection_gram``) are sums of Kronecker products of 3x3 angular and
    6x6 spatial factor Grams (``_tensor_gram``), and no table over the
    rule's 65,536 rows is formed.  The boundary keeps only per-edge factors:
    column i of ``boundary_mass`` is ``trace_adjoint`` of W times
    ``boundary_values`` of the i-th unit vector."""

    sigma_a: float
    sigma_t: float
    n_basis: int = field(init=False, default=_N_ANG * _N_POLY)
    pde_gram: np.ndarray = field(init=False, repr=False)  # <(T+S)phi_i, (T+S)phi_j>
    mass: np.ndarray = field(init=False, repr=False)
    advection_gram: np.ndarray = field(init=False, repr=False)
    boundary_mass: np.ndarray = field(init=False, repr=False)
    outflow_mass: np.ndarray = field(init=False, repr=False)
    inflow: PhaseNodes = field(init=False, repr=False)  # the multiplier's frozen nodes
    edge_ang: np.ndarray = field(init=False, repr=False)  # A_e: angular factor at edge e's angles
    edge_poly_t: np.ndarray = field(init=False, repr=False)  # P_e': polynomials at edge e's positions

    def __post_init__(self):
        if not (0 <= self.sigma_a < np.inf and 0 <= self.sigma_t < np.inf):  # NaN fails too
            raise ContractViolation("sigma_a and sigma_t must be finite and >= 0")
        domain = UNIT_SQUARE
        angular, (nodes, weights) = angular_rule(64), gauss_interval(32)
        x = np.column_stack([np.repeat(nodes, 32), np.tile(nodes, 32)])  # spatial part of tensor_interior
        ang_w, poly_w = angular.weight, np.outer(weights, weights).ravel()
        ang, poly, grads = _angular_values(angular.theta), _poly_values(x), np.stack(_poly_gradients(x), 1)
        scatter = scattering_apply(ang.T, angular, isotropic_kernel(), self.sigma_t).T
        omega = np.column_stack([np.cos(angular.theta), np.sin(angular.theta)])[:, :, None] * ang[:, None]
        self.mass = _tensor_gram(ang[:, None], ang_w, poly[:, None], poly_w)
        self.advection_gram = _tensor_gram(omega, ang_w, grads, poly_w)
        react = (self.sigma_a * ang + scatter)[:, None]
        ts_ang, ts_poly = np.concatenate([omega, react], 1), np.concatenate([grads, poly[:, None]], 1)
        self.pde_gram = _tensor_gram(ts_ang, ang_w, ts_poly, poly_w)

        self.inflow = inflow = tensor_boundary(domain, 32, 32)
        # node (edge, angle, position): theta is constant along positions, x along angles
        theta, x = inflow.theta.reshape(4, 32, 32)[:, :, 0], inflow.x.reshape(4, 32, 32, 2)[:, 0]
        self.edge_ang = _angular_values(theta.ravel()).reshape(4, 32, _N_ANG)
        self.edge_poly_t = _poly_values(x.reshape(-1, 2)).reshape(4, 32, _N_POLY).transpose(0, 2, 1).copy()
        columns = [self.trace_adjoint(inflow.weight * self.boundary_values(e)) for e in np.eye(self.n_basis)]
        self.boundary_mass = np.column_stack(columns)
        # omega -> -omega flips the sign of the cos and sin factors
        flip = np.repeat([1.0, -1.0, -1.0], _N_POLY)
        self.outflow_mass = flip[:, None] * self.boundary_mass * flip

        for name, mat in (("pde", self.pde_gram), ("boundary", self.boundary_mass)):
            low = np.linalg.eigvalsh(mat).min()
            if low < -1e-10:
                raise ContractViolation(f"{name} Gram matrix is not positive semidefinite")

    def triple_gram(self):
        return self.mass + self.advection_gram + self.outflow_mass + self.boundary_mass

    def boundary_values(self, c):
        """trace @ c in node order: A_e C P_e' on every edge e."""
        return (self.edge_ang @ np.reshape(c, (_N_ANG, _N_POLY)) @ self.edge_poly_t).ravel()

    def trace_adjoint(self, values):
        """trace' @ values for one value per inflow node: the sum over edges of A_e' V_e P_e."""
        blocks = np.reshape(values, self.edge_ang.shape[:2] + (-1,))
        per_edge = self.edge_ang.transpose(0, 2, 1) @ blocks @ self.edge_poly_t.transpose(0, 2, 1)
        return per_edge.sum(0).ravel()

    def rhs(self, lambda_vec, gamma, g_values):
        return self.trace_adjoint(self.inflow.weight * (gamma * g_values + lambda_vec))


def _checked(mat, what):
    """``mat`` itself, once its condition estimate is finite and at most COND_LIMIT."""
    cond = np.linalg.cond(mat)
    if not np.isfinite(cond) or cond > COND_LIMIT:
        raise IllConditionedSystem(f"refusing {what} solve", cond)
    return mat


def fixed_point_solve(space, g_values):
    """Discrete saddle point (c_star, lambda_star) of a run started at lambda = 0.

    Neither depends on gamma: c* is the weighted least-squares fit, solved
    by its normal equations boundary_mass c* = trace' W g, which cancel the
    gamma terms.  The updates move the multiplier only inside the trace
    image, so lambda* is the fixed point there: the trace of d with
    boundary_mass d = pde_gram c*.  The checked ``boundary_mass`` serves
    both solves.
    """
    g_values = np.asarray(g_values, dtype=float)
    boundary_mass = _checked(space.boundary_mass, "boundary-mass")
    c_star = np.linalg.solve(boundary_mass, space.trace_adjoint(space.inflow.weight * g_values))
    lambda_star = space.boundary_values(np.linalg.solve(boundary_mass, space.pde_gram @ c_star))
    return c_star, lambda_star


@dataclass
class OracleRun:
    """Records of one run, one row per iterate k: c_k, ||lambda_k - lambda*||_w,
    the 18-number moment trace' W (lambda_k - lambda*), and for e_k = c_k - c*
    the energies e_k' pde_gram e_k and e_k' boundary_mass e_k and the triple
    norm.  The multiplier iterates themselves are not kept."""

    coefficients: np.ndarray
    c_star: np.ndarray
    dist_lambda: np.ndarray
    moments: np.ndarray
    pde_energy: np.ndarray
    boundary_energy: np.ndarray
    err_triple: np.ndarray


def _energy(errors, mat):
    """e' mat e for every row e of ``errors``."""
    return np.einsum("ki,ij,kj->k", errors, mat, errors)


def run_uzawa_oracle(space, gamma, rho, n_iter, g_values=None):
    """Iterate from lambda = 0 with exact inner solves; records hold n_iter + 1 iterates.

    H = pde_gram + gamma * boundary_mass is built and condition-checked once
    per run; each iterate is one LU solve with it, not an inverse, whose
    small residual the identities need.  The multiplier is stepped by
    ``uzawa.multiplier_update`` and measured by ``uzawa.boundary_residual``,
    looked up at call time, so the identities certify the solver's own
    step.  The moment is rhs_k - rhs*: no extra pass."""
    if not rho > 0:  # NaN fails it too
        raise ContractViolation("multiplier step rho must be positive")
    if not 0 <= gamma < np.inf:  # NaN fails it too
        raise ContractViolation("boundary stabilization weight gamma must be finite and >= 0")
    if not n_iter >= 0:
        raise ContractViolation("n_iter must be >= 0")
    nodes = space.inflow
    g_values = np.zeros(len(nodes)) if g_values is None else np.asarray(g_values, dtype=float)
    lam = MultiplierField(np.zeros(len(nodes)), nodes)
    c_star, lambda_star = fixed_point_solve(space, g_values)

    hessian = _checked(space.pde_gram + gamma * space.boundary_mass, "inner")
    rhs_star = space.rhs(lambda_star, gamma, g_values)
    coeffs, dist, moments = [], [], []
    for k in range(n_iter + 1):
        rhs = space.rhs(lam.values, gamma, g_values)
        c = np.linalg.solve(hessian, rhs)
        coeffs.append(c)
        moments.append(rhs - rhs_star)
        dist.append(uzawa.boundary_residual(nodes, lam.values - lambda_star))
        if k < n_iter:
            lam = uzawa.multiplier_update(lam, space.boundary_values(c) - g_values, rho)
    coeffs = np.array(coeffs)
    e = coeffs - c_star
    grams = (space.pde_gram, space.boundary_mass, space.triple_gram())
    pde, bnd, triple = (_energy(e, gram) for gram in grams)
    return OracleRun(coeffs, c_star, np.array(dist), np.array(moments), pde, bnd, np.sqrt(triple))


# -- identity gaps ------------------------------------------------------------


# 0.5 * default_rng(12345).standard_normal(18), bit for bit
_DATUM_COEFFICIENTS = (
    -0.7119125182273156, 0.6318642290645552, -0.4353308689795429, -0.1295866174671988,
    -0.037671653505260486, -0.3704423260428045, -0.6838963508914717, 0.32444640109651995,
    0.1805290565274475, -0.976431531506095, 1.173704827189426, 0.4842484528759618,
    -0.3796935902122533, 0.45109913710612587, -0.23347658666027513, -0.03034475936851399,
    0.3944221722596004, -0.6283340665698383,
)


def default_trace_datum(space):
    """A boundary datum inside the span's trace image: the 18 coefficients
    ``0.5 * default_rng(12345).standard_normal(18)``, kept as a literal so
    that ``verify`` runs without loading ``numpy.random``."""
    c_g = np.array(_DATUM_COEFFICIENTS)
    return c_g, space.boundary_values(c_g)


def residual_identity_gap(run, gamma):
    """Worst deviation of <(T+S)e,(T+S)e> + gamma<e,e>_b = <dlam, e>_b,
    the right side being the stored moment dotted with e."""
    lhs = run.pde_energy + gamma * run.boundary_energy
    return float(np.abs(lhs - np.sum(run.moments * (run.coefficients - run.c_star), axis=1)).max())


def recursion_identity_gap(run, rho):
    """Worst deviation of the multiplier distance recursion
    |dlam_{k+1}|^2 = |dlam_k|^2 - 2 rho <dlam_k, e_k>_b + rho^2 |e_k|_b^2."""
    e = (run.coefficients - run.c_star)[:-1]
    d2 = run.dist_lambda**2
    cross = np.sum(run.moments[:-1] * e, axis=1)
    rhs = d2[:-1] - 2.0 * rho * cross + rho**2 * run.boundary_energy[:-1]
    return float(np.abs(d2[1:] - rhs).max(initial=0.0))


def telescoping_check(run, gamma, rho):
    """(gap to the exact telescoped drop, partial sum, initial distance^2)."""
    pde, bnd = run.pde_energy[:-1], run.boundary_energy[:-1]
    total = float(np.sum(2.0 * rho * pde + rho * (2.0 * gamma - rho) * bnd))
    drop = run.dist_lambda[0] ** 2 - run.dist_lambda[-1] ** 2
    return abs(total - drop), total, run.dist_lambda[0] ** 2


def strong_regime_constant(sigma_a, sigma_t, gamma, rho, n_alpha=999):
    """Best positive coercivity constant over the free parameter alpha."""
    a = np.linspace(1e-3, 1.0 - 1e-3, n_alpha)
    entries = (
        2.0 * rho * a,
        2.0 * rho * sigma_a * a,
        rho * (2.0 * gamma - rho - 2.0 * sigma_a * a),
        2.0 * rho * (sigma_a**2 * a - 4.0 * sigma_t**2 / (1.0 - a)),
    )
    return np.min(entries, axis=0).max()


def verification_suite(n_iter=200, pairs=((1.0, 0.5), (1.0, 1.5), (2.0, 3.5))):
    """Run the full identity battery; returns (name, ok, detail) tuples.

    Identity tolerances 1e-10, telescoping 1e-8, matching the acceptance
    gate.  Every case runs on one trial space (absorption 1, scattering
    0.1) and one fixed datum (``default_trace_datum``); the strong-regime
    case uses gamma 2, rho 1.
    The identities and the telescoping bound read each run's stored moments
    and energies, the monotone check its distances, the strong-regime
    checks its triple-norm errors; no energy is computed twice.
    """
    checks = []
    sigma_a, sigma_t = 1.0, 0.1
    space = LinearTrialSpace(sigma_a=sigma_a, sigma_t=sigma_t)
    _, g_values = default_trace_datum(space)
    for gamma, rho in pairs:
        run = run_uzawa_oracle(space, gamma, rho, n_iter, g_values)
        gap_res = residual_identity_gap(run, gamma)
        gap_rec = recursion_identity_gap(run, rho)
        gap_tel, total, bound = telescoping_check(run, gamma, rho)
        mono = bool(np.all(np.diff(run.dist_lambda) <= 1e-12))
        label = f"gamma={gamma}, rho={rho}"
        checks.append((f"residual identity ({label})", gap_res <= 1e-10, f"max gap {gap_res:.3e}"))
        checks.append((f"distance recursion ({label})", gap_rec <= 1e-10, f"max gap {gap_rec:.3e}"))
        checks.append(
            (
                f"telescoping bound ({label})",
                bool(gap_tel <= 1e-8 and total <= bound + 1e-8),
                f"gap {gap_tel:.3e}, sum {total:.6f} <= {bound:.6f}",
            )
        )
        checks.append((f"monotone multiplier distance ({label})", mono, ""))

    gamma, rho = 2.0, 1.0
    run = run_uzawa_oracle(space, gamma, rho, n_iter, g_values)
    c_const = strong_regime_constant(sigma_a, sigma_t, gamma, rho)
    partial = c_const * np.cumsum(run.err_triple[:-1] ** 2)
    bound = run.dist_lambda[0] ** 2 + 1e-8
    decreasing = bool(np.all(np.diff(run.err_triple) <= 1e-12))
    checks.append(
        (
            "strong-regime weighted sums",
            bool(c_const > 0 and np.all(partial <= bound)),
            f"C={c_const:.4f}, max partial {partial.max():.6f} <= {bound:.6f}",
        )
    )
    checks.append(("strong-regime decreasing error", decreasing, ""))
    return checks

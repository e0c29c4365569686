"""Transport and scattering operators, coefficients, sources, inflow data.

The transport part is pointwise: directional spatial derivative plus
absorption.  The scattering part redistributes intensity across the
angular nodes at a fixed position through a kernel in cos of the angle
between directions.  The kernel's stated normalization (unit integral of
pi over [-1,1]) does not make the circle average of pi equal one, and a
discrete rule would miss even that; each kernel row is therefore
renormalized against the angular quadrature so that the weighted row
average is exactly one.  That keeps angular constants in the null space
of the discrete operator, which the convergence checks rely on.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import network
from .errors import ContractViolation
from .phase_space import AngularNodes

TWO_PI = 2.0 * np.pi


# -- coefficients -------------------------------------------------------------


@dataclass(frozen=True)
class CoefficientField:
    """Nonnegative absorption coefficient as a function of position."""

    kind: str
    params: tuple

    def __call__(self, x):
        x = np.atleast_2d(np.asarray(x, dtype=float))
        if self.kind == "constant":
            (value,) = self.params
            return np.full(x.shape[0], value)
        if self.kind == "ball-obstacle":
            cx, cy, radius, inside, outside = self.params
            r2 = (x[:, 0] - cx) ** 2 + (x[:, 1] - cy) ** 2
            return np.where(r2 <= radius * radius, inside, outside)
        if self.kind == "split-plane":
            threshold, left, right = self.params
            return np.where(x[:, 0] < threshold, left, right)
        raise ContractViolation(f"unknown coefficient kind '{self.kind}'")


def constant_absorption(value):
    if value < 0:
        raise ContractViolation("absorption must be nonnegative")
    return CoefficientField("constant", (float(value),))


def ball_obstacle(center, radius, inside, outside):
    if min(inside, outside) < 0:
        raise ContractViolation("absorption must be nonnegative")
    return CoefficientField(
        "ball-obstacle", (float(center[0]), float(center[1]), float(radius), float(inside), float(outside))
    )


def split_plane(threshold, left, right):
    if min(left, right) < 0:
        raise ContractViolation("absorption must be nonnegative")
    return CoefficientField("split-plane", (float(threshold), float(left), float(right)))


# -- scattering kernels -------------------------------------------------------


@dataclass
class ScatteringKernel:
    """Kernel in y = omega . omega'; isotropic or forward-peaked exp(y/eps).

    ``matrix``/``rows`` return discretely renormalized values (weighted row
    average exactly one); ``continuum_density`` returns pi normalized to
    unit integral over [-1, 1] for the spectral eigenvalue formula.
    """

    kind: str = "isotropic"
    epsilon: float = 1.0
    _cache: dict = field(default_factory=dict, repr=False)

    def __post_init__(self):
        if self.kind not in ("isotropic", "forward-peaked"):
            raise ContractViolation(f"unknown kernel kind '{self.kind}'")
        if self.kind == "forward-peaked" and self.epsilon <= 0:
            raise ContractViolation("forward-peaked kernel needs epsilon > 0")

    def _shape(self, cosang):
        # any positive multiple works; the exp is shifted for stability
        if self.kind == "isotropic":
            return np.ones_like(cosang)
        return np.exp((cosang - 1.0) / self.epsilon)

    def rows(self, theta_query, angular):
        """Renormalized kernel rows at arbitrary query directions."""
        theta_query = np.atleast_1d(np.asarray(theta_query, dtype=float))
        raw = self._shape(np.cos(theta_query[:, None] - angular.theta[None, :]))
        row_avg = raw @ angular.weight / TWO_PI
        return raw / row_avg[:, None]

    def matrix(self, angular):
        """Node-to-node renormalized kernel matrix, cached per quadrature."""
        key = id(angular)
        hit = self._cache.get(key)
        if hit is not None and hit[0] is angular:
            return hit[1]
        mat = self.rows(angular.theta, angular)
        self._cache[key] = (angular, mat)
        return mat

    def continuum_density(self, y, n_quad=256):
        """pi(y) normalized so its integral over [-1, 1] equals one."""
        nodes, weights = np.polynomial.legendre.leggauss(n_quad)
        z = float(self._shape(nodes) @ weights)
        return self._shape(np.asarray(y, dtype=float)) / z


def isotropic_kernel():
    return ScatteringKernel("isotropic")


def forward_peaked_kernel(epsilon):
    return ScatteringKernel("forward-peaked", float(epsilon))


def legendre_eigenvalue(n, kernel, sigma_t, n_quad=512):
    """Spectral eigenvalue sigma_t * (1 - integral of pi * P_n)."""
    if n < 0:
        raise ContractViolation("mode index must be nonnegative")
    nodes, weights = np.polynomial.legendre.leggauss(max(n_quad, 4 * (n + 1)))
    pn = np.polynomial.legendre.Legendre.basis(n)(nodes)
    return sigma_t * (1.0 - float((kernel.continuum_density(nodes) * pn) @ weights))


# -- sources and inflow data --------------------------------------------------


@dataclass(frozen=True)
class NoiseSpec:
    std: float
    seed: int


@dataclass
class SourceAndInflow:
    """Source f(x, omega), inflow datum g(x, omega), optional frozen noise.

    Noise is realized once per boundary node from its own seed and only
    where the base datum is nonzero (it perturbs prescribed data rather
    than inventing data on silent parts of the boundary).
    """

    f: object = None
    g: object = None
    noise: NoiseSpec | None = None
    _cache: dict = field(default_factory=dict, repr=False, compare=False)

    def source(self, x, theta):
        x = np.atleast_2d(np.asarray(x, dtype=float))
        theta = np.atleast_1d(np.asarray(theta, dtype=float))
        if self.f is None:
            return np.zeros(x.shape[0])
        return np.asarray(self.f(x, theta), dtype=float)

    def inflow(self, boundary):
        if self.g is None:
            base = np.zeros(len(boundary))
        else:
            base = np.asarray(self.g(boundary.x, boundary.theta), dtype=float)
        if self.noise is not None:
            rng = np.random.default_rng(self.noise.seed)
            delta = rng.normal(0.0, self.noise.std, len(boundary))
            base = base + delta * (base != 0.0)
        return base

    def frozen_inflow(self, boundary):
        """``inflow`` on a frozen node set, computed once per node set."""
        hit = self._cache.get(id(boundary))
        if hit is None or hit[0] is not boundary:
            hit = self._cache[id(boundary)] = (boundary, self.inflow(boundary))
        return hit[1]


@dataclass
class ProblemSpec:
    """Physics of one experiment: coefficients, kernel, source, inflow."""

    sigma_a: CoefficientField
    sigma_t: float
    kernel: ScatteringKernel
    data: SourceAndInflow

    def __post_init__(self):
        if self.sigma_t < 0:
            raise ContractViolation("scattering strength must be nonnegative")


# -- operators ----------------------------------------------------------------


def transport_apply(u_val, du_omega, sigma_a_at_x):
    """Directional derivative plus absorption."""
    return du_omega + sigma_a_at_x * u_val


def scattering_apply(u_slice, angular, kernel, sigma_t):
    """Discrete scattering of one angular slice at a fixed position."""
    u_slice = np.asarray(u_slice, dtype=float)
    if u_slice.shape[-1] != len(angular):
        raise ContractViolation("slice length must match the angular node count")
    mat = kernel.matrix(angular)
    mean = u_slice @ (mat * angular.weight[None, :]).T / TWO_PI
    return sigma_t * (u_slice - mean)


# -- residual assembly --------------------------------------------------------


def _network_pass(params, groups, boundary, embedding, need_grad):
    """One network pass over row groups [(x, theta), ...] (the first carries
    the omega-tangent rail), then the ``boundary`` nodes if given.  Returns
    per-group values, the first group's derivatives and the entries
    "u_boundary" and, with ``need_grad``, "cache"; else the pass streams."""
    if embedding is None:
        embedding = network.embedding_for(params)
    if boundary is not None:
        groups = groups + [(boundary.x, boundary.theta)]
    x = np.concatenate([g[0] for g in groups])
    theta = np.concatenate([g[1] for g in groups])
    n_t, extra = groups[0][1].shape[0], {}
    if need_grad:
        tangent = embedding.transport_tangent(theta[:n_t])
        u, du, extra["cache"] = network.forward_jvp_batch(params, embedding.embed(x, theta), tangent)
    else:
        u, du = network.eval_jvp_batch(params, x, theta, n_t, embedding)
    values = np.split(u, np.cumsum([g[1].shape[0] for g in groups])[:-1])
    if boundary is not None:
        extra["u_boundary"] = values.pop()
    return values, du, extra


def blocked_terms(params, spatial_x, angular, problem, embedding=None, boundary=None, need_grad=False):
    """Residual data on a spatial block crossed with the angular rule.

    Evaluates the network once per (spatial point, angular node) pair,
    reusing the same values for the residual and for the scattering sums,
    so the angular coupling costs one K x K product per spatial point.
    Returns a dict with flat arrays in spatial-major order; frozen
    ``boundary`` nodes ride along in the same pass ("u_boundary"), and
    ``need_grad`` keeps the pass's cache for one reverse sweep ("cache").
    """
    spatial_x = np.atleast_2d(np.asarray(spatial_x, dtype=float))
    m = spatial_x.shape[0]
    k = len(angular)
    x = np.repeat(spatial_x, k, axis=0)
    theta = np.tile(angular.theta, m)
    (u,), du, extra = _network_pass(params, [(x, theta)], boundary, embedding, need_grad)
    umat = u.reshape(m, k)
    mat = problem.kernel.matrix(angular)
    scat_mean = umat @ (mat * angular.weight[None, :]).T / TWO_PI
    sig = np.repeat(problem.sigma_a(spatial_x), k)
    resid = du + (sig + problem.sigma_t) * u - problem.sigma_t * scat_mean.ravel()
    resid = resid - problem.data.source(x, theta)
    return {
        "x": x,
        "theta": theta,
        "u": u,
        "du": du,
        "u_matrix": umat,
        "residual": resid,
        "sigma": sig,
        "kernel_matrix": mat,
        **extra,
    }


def sample_terms(params, x, theta, angular, problem, embedding=None, boundary=None, need_grad=False):
    """Residual data at loose phase samples (directions off the angular grid).

    Each sample needs the full angular slice at its position for the
    scattering average, so this path costs K extra value-only rows per
    sample, evaluated in the same pass; the kernel row is renormalized at
    the sample's own direction.  Returns the entries of ``blocked_terms``
    except x, theta and the kernel matrix, with the kernel rows ("rows").
    """
    x = np.atleast_2d(np.asarray(x, dtype=float))
    theta = np.atleast_1d(np.asarray(theta, dtype=float))
    n = x.shape[0]
    k = len(angular)
    slices = (np.repeat(x, k, axis=0), np.tile(angular.theta, n))
    (u, us), du, extra = _network_pass(params, [(x, theta), slices], boundary, embedding, need_grad)
    umat = us.reshape(n, k)
    rows = problem.kernel.rows(theta, angular)
    scat_mean = (rows * angular.weight[None, :] * umat).sum(axis=1) / TWO_PI
    sig = problem.sigma_a(x)
    resid = du + (sig + problem.sigma_t) * u - problem.sigma_t * scat_mean
    resid = resid - problem.data.source(x, theta)
    return {
        "u": u,
        "du": du,
        "u_matrix": umat,
        "residual": resid,
        "rows": rows,
        "sigma": sig,
        **extra,
    }


def pde_residual(params, point, angular, problem, embedding=None):
    """Strong residual (T + S)u - f at one interior phase point."""
    terms = sample_terms(
        params, point.x[None, :], [point.theta], angular, problem, embedding
    )
    return float(terms["residual"][0])

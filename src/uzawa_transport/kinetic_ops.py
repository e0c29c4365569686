"""Transport and scattering operators, coefficients, sources, inflow data.

The transport part is pointwise: directional spatial derivative plus
absorption.  The scattering part sigma_t (u - mean u) redistributes
intensity across the angular nodes at a fixed position through a kernel
in cos of the angle between directions.  No continuum normalization of
the kernel survives a discrete rule exactly, so each kernel row is
renormalized against the angular quadrature to a weighted row average of
exactly one.  That keeps angular constants in the null space of the
discrete operator, which the convergence checks rely on; on the other
Fourier modes it acts with the eigenvalues of ``angular_eigenvalue`` up
to angular quadrature error.

The discrete operator lives here once.  ``scattering_mean`` is the
kernel-weighted angular mean and ``scattering_adjoint`` its exact adjoint
(the gradient seeds of ``lagrangian``); both take the kernel rows either
as one K x K matrix shared by every slice or as one row per slice.  Every
residual goes through one assembly body, reached through
``blocked_terms`` (tensor interiors) or ``sample_terms`` (loose Monte
Carlo samples), which ``interior_terms`` picks by the quadrature scheme.
Both take the interior rows as they are; a tensor interior's rows come in
spatial-major blocks of K, one per spatial point, theta the angular rule
in each.  The assembly evaluates a network or a ``ReferenceSolution``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import network
from .errors import ContractViolation
from .phase_space import TENSOR_GAUSS

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
    average exactly one), so only the shape of the kernel matters, never
    its continuum normalization.
    """

    kind: str = "isotropic"
    epsilon: float = 1.0
    _cache: dict = field(default_factory=dict, repr=False)

    def __post_init__(self):
        if self.kind not in ("isotropic", "forward-peaked"):
            raise ContractViolation(f"unknown kernel kind '{self.kind}'")
        if self.kind == "forward-peaked" and self.epsilon <= 0:
            raise ContractViolation("forward-peaked kernel needs epsilon > 0")

    def rows(self, theta_query, angular):
        """Renormalized kernel rows at arbitrary query directions.

        A forward-peaked row is exp((y - max y)/eps): shifting each exponent
        by its row maximum makes the largest entry one, so the row average
        cannot underflow however small eps is against the node spacing.
        """
        theta_query = np.atleast_1d(np.asarray(theta_query, dtype=float))
        if self.kind == "isotropic":
            raw = np.ones((theta_query.shape[0], angular.theta.shape[0]))
        else:
            cosang = np.cos(theta_query[:, None] - angular.theta[None, :])
            raw = np.exp((cosang - cosang.max(axis=1, keepdims=True)) / self.epsilon)
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


def isotropic_kernel():
    return ScatteringKernel("isotropic")


def forward_peaked_kernel(epsilon):
    return ScatteringKernel("forward-peaked", float(epsilon))


def angular_eigenvalue(n, kernel, sigma_t):
    """Eigenvalue of the scattering operator on cos(n theta) and sin(n theta).

    On the circle the operator sigma_t (u - kernel mean of u) is diagonal in
    the Fourier modes, with eigenvalue sigma_t (1 - k_n / k_0), k_n the n-th
    Fourier coefficient of the kernel in the angle between directions.  For
    exp(cos(phi)/eps) that ratio is I_n(1/eps) / I_0(1/eps) (modified Bessel
    functions, taken exponentially scaled so large 1/eps cannot overflow);
    for the isotropic kernel it is 1 at n = 0 and 0 otherwise.  The Bessel
    functions come from ``scipy.special``, imported here, in the one
    function that needs it, so that a solve never loads scipy.
    """
    if n < 0:
        raise ContractViolation("mode index must be nonnegative")
    if kernel.kind == "isotropic":
        ratio = 1.0 if n == 0 else 0.0
    else:
        from scipy.special import ive

        ratio = ive(n, 1.0 / kernel.epsilon) / ive(0, 1.0 / kernel.epsilon)
    return sigma_t * (1.0 - float(ratio))


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
        """g on a frozen boundary node set, noise included; computed once
        per node set and then returned from the cache."""
        hit = self._cache.get(id(boundary))
        if hit is None or hit[0] is not boundary:
            base = np.zeros(len(boundary))
            if self.g is not None:
                base = np.asarray(self.g(boundary.x, boundary.theta), dtype=float)
            if self.noise is not None:
                rng = np.random.default_rng(self.noise.seed)
                delta = rng.normal(0.0, self.noise.std, len(boundary))
                base = base + delta * (base != 0.0)
            hit = self._cache[id(boundary)] = (boundary, base)
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


@dataclass
class ReferenceSolution:
    """Exact solution with its directional derivative, for error norms; the
    residual assembly evaluates it in place of the network pass."""

    value: object  # (x, theta) -> values
    directional: object  # (x, theta) -> omega . grad_x at (x, theta)


def scattering_mean(slices, rows, weight):
    """Kernel-weighted angular mean of each slice,
    mean[s, i] = sum_j rows[s, i, j] weight[j] slices[s, j] / 2 pi.

    ``slices`` holds one row of K angular-node values per position.
    ``rows`` is one (K, K) node-to-node matrix shared by every slice
    (blocked tensor interiors; the mean is (m, K)) or a stack (n, 1, K)
    of one row per slice at that sample's own direction (loose samples;
    the mean is (n, 1))."""
    return np.matmul(rows * weight, slices[..., None])[..., 0] / TWO_PI


def scattering_adjoint(seeds, rows, weight):
    """Exact adjoint of ``scattering_mean`` in its slice argument:
    <scattering_mean(u, rows, w), s> = <u, scattering_adjoint(s, rows, w)>,
    with ``seeds`` shaped like the mean and the result like the slices."""
    return np.matmul(seeds[..., None, :], rows)[..., 0, :] * weight / TWO_PI


def scattering_apply(u_slice, angular, kernel, sigma_t):
    """Discrete scattering sigma_t (u - mean u) of angular slices at fixed positions."""
    u_slice = np.asarray(u_slice, dtype=float)
    if u_slice.shape[-1] != len(angular):
        raise ContractViolation("slice length must match the angular node count")
    return sigma_t * (u_slice - scattering_mean(u_slice, kernel.matrix(angular), angular.weight))


# -- residual assembly --------------------------------------------------------


def _terms(field, points, slices, kernel_rows, angular, problem, boundary, need_grad):
    """Residual (T + S)u - f of ``field`` at ``points`` = (x, theta).

    One pass covers the points with their omega-tangent rail, then the
    scattering slices (extra rows; None when the points are the slices),
    then the frozen ``boundary`` nodes; ``need_grad`` keeps the network
    pass's cache.  A ReferenceSolution ``field`` stands in for the pass."""
    x, theta = points
    groups = [points] if slices is None else [points, slices]
    if boundary is not None:
        groups.append((boundary.x, boundary.theta))
    rows_x = np.concatenate([g[0] for g in groups])
    rows_theta = np.concatenate([g[1] for g in groups])
    extra = {}
    if isinstance(field, ReferenceSolution):
        u_rows, du = field.value(rows_x, rows_theta), field.directional(x, theta)
    elif need_grad:
        u_rows, du, extra["cache"] = network.forward_jvp_phase(field, rows_x, rows_theta, len(theta))
    else:
        u_rows, du = network.eval_jvp_batch(field, rows_x, rows_theta, len(theta))
    values = np.split(u_rows, np.cumsum([len(g[1]) for g in groups])[:-1])
    if boundary is not None:
        extra["u_boundary"] = values.pop()
    u = values[0]
    mean = scattering_mean(values[-1].reshape(-1, len(angular)), kernel_rows, angular.weight)
    sig = problem.sigma_a(x)
    resid = du + (sig + problem.sigma_t) * u - problem.sigma_t * mean.ravel()
    resid = resid - problem.data.source(x, theta)
    return {"u": u, "du": du, "residual": resid, "sigma": sig, "kernel_rows": kernel_rows, **extra}


def blocked_terms(field, x, theta, angular, problem, boundary=None, need_grad=False, kernel_rows=None):
    """Residual data on tensor rows: spatial-major blocks of K rows, one per
    spatial point, x constant in each block and theta the angular rule.

    ``field`` is network parameters or a ReferenceSolution.  Each row is
    evaluated once and serves both the residual and the scattering sums
    (the rows are the slices), so the angular coupling costs one K x K
    product per block.  Returns a dict of flat arrays in row order: "u",
    "du" (along each row's own direction), "residual", "sigma" (absorption
    per row), and "kernel_rows" (the shared K x K matrix); frozen
    ``boundary`` nodes ride along in the same pass ("u_boundary"), and
    ``need_grad`` keeps the pass's cache for one reverse sweep ("cache").
    ``kernel_rows``, when given, is that matrix, computed already.
    """
    x = np.atleast_2d(np.asarray(x, dtype=float))
    theta = np.atleast_1d(np.asarray(theta, dtype=float))
    mat = problem.kernel.matrix(angular) if kernel_rows is None else kernel_rows
    return _terms(field, (x, theta), None, mat, angular, problem, boundary, need_grad)


def sample_terms(field, x, theta, angular, problem, boundary=None, need_grad=False, kernel_rows=None):
    """Residual data at loose phase samples (directions off the angular grid).

    Each sample needs the full angular slice at its position for the
    scattering average, so this path costs K extra value-only rows per
    sample, evaluated in the same pass after the samples; the kernel row is
    renormalized at the sample's own direction (``kernel_rows``, when given,
    are the samples' ``ScatteringKernel.rows``).  Returns the entries of
    ``blocked_terms``, with "kernel_rows" one row per sample, (n, 1, K).
    """
    x = np.atleast_2d(np.asarray(x, dtype=float))
    theta = np.atleast_1d(np.asarray(theta, dtype=float))
    k = len(angular)
    slices = (np.repeat(x, k, axis=0), np.tile(angular.theta, x.shape[0]))
    rows = problem.kernel.rows(theta, angular) if kernel_rows is None else kernel_rows
    return _terms(field, (x, theta), slices, rows[:, None, :], angular, problem, boundary, need_grad)


def interior_terms(field, quad, problem, need_grad=False, kernel_rows=None):
    """Residual data of ``field`` on the interior of ``quad``, with its
    inflow-boundary nodes in the same pass: ``blocked_terms`` for tensor
    interiors, ``sample_terms`` for loose Monte Carlo samples, either given
    ``kernel_rows`` when they are computed already."""
    terms = blocked_terms if quad.scheme == TENSOR_GAUSS else sample_terms
    rows = quad.interior
    return terms(field, rows.x, rows.theta, quad.angular, problem, quad.boundary, need_grad, kernel_rows)

"""Transport and scattering operators and the problem's data fields.

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
kernel-weighted angular mean and ``scattering_adjoint`` its exact adjoint;
both take the kernel rows either as one K x K matrix shared by every slice
or as one row per slice.  The layout of the stacked network passes lives
here too: a ``PhaseRows`` builds an evaluation's rows once and cuts them
into tiles of at most ``network.ROW_BLOCK`` rows; its ``terms``, the one
assembly body of every residual, runs one tile's pass, ``sweep`` seeds
that pass's reverse sweep, and ``whole`` walks every tile for whole-set
callers (``blocked_terms``, ``sample_terms``, ``discrete_norms``).

The problem's data live here too: sigma_a, the source f and the inflow
datum g are each a ``CoefficientField`` kind and its ``params``, or None.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import network
from .errors import ContractViolation
from .phase_space import TENSOR_GAUSS

TWO_PI = 2.0 * np.pi


def _per_node_set(cache, nodes, build):
    """``build(nodes)``, computed once per node set: ``cache`` files it with
    the set itself under ``id(nodes)``, so a recycled id is rebuilt."""
    hit = cache.get(id(nodes))
    if hit is None or hit[0] is not nodes:
        hit = cache[id(nodes)] = (nodes, build(nodes))
    return hit[1]


# -- data fields --------------------------------------------------------------


# per kind: (index of its first value, params count); the params before the first value place it
_LAYOUT = {
    "constant": (0, 1), "ball": (3, 5), "split-plane": (1, 3), "left-edge": (1, 2), "edge-window": (2, 3)
}


@dataclass(frozen=True)
class CoefficientField:
    """A data field of the problem, sigma_a, the source f or the inflow
    datum g: a kind and its ``params``, in order:

    - ``constant`` (value);
    - ``ball`` (cx, cy, radius, inside, outside): inside where |x - c| <= radius;
    - ``split-plane`` (threshold, left, right): left where x1 < threshold;
    - ``left-edge`` (edge, value): value where |x1 - edge| <= 1e-9, else 0;
    - ``edge-window`` (edge, half_width, value): value on that edge where theta,
      wrapped to (-pi, pi], is within half_width + 1e-12, else 0.
    """

    kind: str
    params: tuple

    def __post_init__(self):
        if self.kind not in _LAYOUT:
            raise ContractViolation(f"unknown field kind '{self.kind}'")
        if len(self.params) != _LAYOUT[self.kind][1]:
            raise ContractViolation(f"a {self.kind} field takes {_LAYOUT[self.kind][1]} params")

    @property
    def values(self):
        """The values the field takes where it is set (the edge kinds are 0 elsewhere)."""
        return self.params[_LAYOUT[self.kind][0] :]

    def __call__(self, x, theta=None):
        x = np.atleast_2d(np.asarray(x, dtype=float))
        if self.kind == "constant":
            return np.full(x.shape[0], self.params[0])
        if self.kind == "ball":
            cx, cy, radius, inside, outside = self.params
            r2 = (x[:, 0] - cx) ** 2 + (x[:, 1] - cy) ** 2
            return np.where(r2 <= radius * radius, inside, outside)
        if self.kind == "split-plane":
            threshold, left, right = self.params
            return np.where(x[:, 0] < threshold, left, right)
        on_edge = np.abs(x[:, 0] - self.params[0]) <= 1e-9
        if self.kind == "edge-window":
            wrapped = np.angle(np.exp(1j * np.atleast_1d(theta)))
            on_edge = on_edge & (np.abs(wrapped) <= self.params[1] + 1e-12)
        return np.where(on_edge, self.params[-1], 0.0)


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
        if self.kind == "forward-peaked" and not self.epsilon > 0:
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
        return _per_node_set(self._cache, angular, lambda nodes: self.rows(nodes.theta, nodes))


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

    def __post_init__(self):
        if not 0 <= self.std < np.inf:  # NaN fails both checks
            raise ContractViolation("noise std must be finite and nonnegative")


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
        return _per_node_set(self._cache, boundary, self._inflow)

    def _inflow(self, boundary):
        base = np.zeros(len(boundary))
        if self.g is not None:
            base = np.asarray(self.g(boundary.x, boundary.theta), dtype=float)
        if self.noise is not None:
            rng = np.random.default_rng(self.noise.seed)
            delta = rng.normal(0.0, self.noise.std, len(boundary))
            base = base + delta * (base != 0.0)
        return base


@dataclass
class ProblemSpec:
    """Physics of one experiment: coefficients, kernel, source, inflow."""

    sigma_a: CoefficientField
    sigma_t: float
    kernel: ScatteringKernel
    data: SourceAndInflow
    _rows: dict = field(default_factory=dict, repr=False, compare=False)

    def __post_init__(self):
        if not 0 <= self.sigma_t < np.inf:  # NaN fails both checks
            raise ContractViolation("scattering strength must be finite and nonnegative")
        if self.sigma_a.kind in ("left-edge", "edge-window"):  # inflow data; sigma_a gets no angle
            raise ContractViolation(f"absorption cannot be a {self.sigma_a.kind} field")
        if not all(0 <= value < np.inf for value in self.sigma_a.values):
            raise ContractViolation("absorption must be finite and nonnegative")

    def boundary_rows(self, boundary):
        """Network rows of a frozen boundary node set, computed once per node set."""
        return _per_node_set(self._rows, boundary, lambda nodes: network.embed(nodes.x, nodes.theta))


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


class PhaseRows:
    """The rows of one evaluation, built once, and the layout of its passes:
    per point (x, theta) its network row (``network.embed``), transport
    tangent (``network.transport_tangent``), sigma_a, f and kernel rows (the
    K x K matrix shared by tensor blocks, or a (1, K) row per ``loose``
    sample, whose K slice rows each tile embeds from the sample's position
    and the rule's angles), and the boundary's rows, cached by
    ``ProblemSpec.boundary_rows``."""

    def __init__(self, x, theta, angular, problem, boundary, loose):
        x, theta = np.atleast_2d(np.asarray(x, dtype=float)), np.atleast_1d(np.asarray(theta, dtype=float))
        self.x, self.theta, self.angular, self.problem, self.boundary = x, theta, angular, problem, boundary
        self.emb, self.tangent, self.loose = network.embed(x, theta), network.transport_tangent(theta), loose
        self.sigma, self.source, kernel = problem.sigma_a(x), problem.data.source(x, theta), problem.kernel
        self.kernel_rows = kernel.rows(theta, angular)[:, None] if loose else kernel.matrix(angular)
        self.boundary_emb = problem.boundary_rows(boundary) if boundary else network.embed(x[:0], theta[:0])

    def tiles(self):
        """(points, boundary nodes) slices of each tile in pass order: runs of
        whole units, which the scattering sum never couples, then of boundary
        nodes; at most ``network.ROW_BLOCK`` stacked network rows (read at
        each call) or one unit each.  A unit is a tensor block, K rows and K
        tangent rows, or a loose sample with K slice rows and a tangent row."""
        k, n, n_b, budget = len(self.angular), len(self.theta), len(self.boundary_emb), network.ROW_BLOCK
        rows, unit = (1, k + 2) if self.loose else (k, 2 * k)
        per = rows * max(1, budget // unit)
        return [(slice(lo, min(lo + per, n)), slice(0, 0)) for lo in range(0, n, per)] + [
            (slice(n, n), slice(lo, min(lo + budget, n_b))) for lo in range(0, n_b, budget)
        ]

    def terms(self, field, points=slice(None), nodes=slice(None), need_grad=False):
        """Residual (T + S)u - f of ``field`` at the points ``points`` (a slice).

        One pass covers the points with their omega-tangent rail, then each
        loose sample's K slice rows (tensor points are their own slices),
        then the boundary nodes ``nodes`` (a slice); ``need_grad`` keeps the
        pass's cache.  A ReferenceSolution ``field`` stands in for the pass."""
        x, theta, k, b = self.x[points], self.theta[points], len(self.angular), self.boundary
        m, loose = theta.shape[0], self.loose
        n_s, n_b, extra = m * k if loose else 0, self.boundary_emb[nodes].shape[0], {}
        if isinstance(field, ReferenceSolution):
            groups = [(x, theta)]
            groups += [(np.repeat(x, k, axis=0), np.tile(self.angular.theta, m))] if loose else []
            groups += [(b.x[nodes], b.theta[nodes])] if b is not None else []
            u_rows, du = field.value(*map(np.concatenate, zip(*groups))), field.directional(x, theta)
        else:
            rows = np.empty((m + n_s + n_b, network.INPUT_WIDTH))
            rows[:m], rows[m + n_s :] = self.emb[points], self.boundary_emb[nodes]
            if n_s:  # each loose sample's slice rows: its position, the rule's directions
                rows[m : m + n_s] = network.embed(x[:, None], self.angular.theta).reshape(n_s, -1)
            run = network.forward_jvp_batch if need_grad else network.eval_jvp_batch
            u_rows, du, *cache = run(field, rows, self.tangent[points])
            extra = {"cache": cache[0]} if need_grad else {}
        u, kernel_rows = u_rows[:m], self.kernel_rows[points] if loose else self.kernel_rows
        slices = (u_rows[m : m + n_s] if loose else u).reshape(-1, k)
        mean = scattering_mean(slices, kernel_rows, self.angular.weight)
        sig, sigma_t = self.sigma[points], self.problem.sigma_t
        resid = du + (sig + sigma_t) * u - sigma_t * mean.ravel() - self.source[points]
        extra["u_boundary"] = u_rows[m + n_s :]  # empty without boundary nodes
        return {"u": u, "du": du, "residual": resid, "sigma": sig, "kernel_rows": kernel_rows, **extra}

    def sweep(self, params, terms, weighted_residual, boundary_seed):
        """Gradient from the reverse sweep of a tile's pass, whose ``terms``
        kept its cache (popped, so a pass that grows the workspace does not
        keep this one alive).  Tangent seeds are w r; value seeds are w r
        (sigma_a + sigma_t), the scattering cross-terms (added in place on
        tensor points, their own slices), then ``boundary_seed``."""
        wr, kernel_rows, sigma_t = weighted_residual, terms["kernel_rows"], self.problem.sigma_t
        scat = scattering_adjoint(wr.reshape(-1, kernel_rows.shape[-2]), kernel_rows, self.angular.weight)
        seeds = [wr * (terms["sigma"] + sigma_t), -sigma_t * scat.ravel()]
        if not self.loose:
            seeds = [seeds[0] + seeds[1]]
        seeds.append(boundary_seed)
        return network.vjp_jvp_batch(params, terms.pop("cache"), np.concatenate(seeds), wr)

    def whole(self, field):
        """The "u", "du", "residual" and "u_boundary" of ``terms`` at every
        point and boundary node, in row order, walked one tile at a time."""
        walked = [self.terms(field, *tile) for tile in self.tiles()]
        return {key: np.concatenate([t[key] for t in walked]) for key in ("u", "du", "residual", "u_boundary")}


def blocked_terms(field, x, theta, angular, problem, boundary=None):
    """``PhaseRows.whole`` of ``field`` (network parameters or a
    ReferenceSolution) on tensor rows: spatial-major blocks of K rows, x
    constant in each block and theta the angular rule, so the rows are the
    scattering slices; frozen ``boundary`` nodes ride along."""
    return PhaseRows(x, theta, angular, problem, boundary, False).whole(field)


def sample_terms(field, x, theta, angular, problem, boundary=None):
    """``blocked_terms`` at loose phase samples, directions off the angular
    grid: a sample's pass adds its slice, K value-only rows, and its kernel
    row is renormalized at its own direction."""
    return PhaseRows(x, theta, angular, problem, boundary, True).whole(field)


def interior_rows(quad, problem):
    """The ``PhaseRows`` of the interior of ``quad`` and its inflow boundary:
    blocked on tensor interiors, loose on Monte Carlo samples."""
    loose = quad.scheme != TENSOR_GAUSS
    return PhaseRows(quad.interior.x, quad.interior.theta, quad.angular, problem, quad.boundary, loose)

"""Geometry and quadrature for the position-angle domain.

The phase space is a rectangle D crossed with the unit circle.  Three
measures matter: the product measure on D x S^1, the angular measure on
S^1, and the inflow-boundary measure |n . omega| dx domega on the part of
the boundary where directions point into D.  Each has a deterministic
tensor rule; the product and inflow measures also have seeded Monte Carlo
samplers.  Both schemes use the same equispaced angular rule.

Tensor rules: Gauss-Legendre in each spatial axis, equispaced midpoint
nodes on the circle (spectrally accurate for periodic integrands), and,
per boundary edge, Gauss-Legendre in position crossed with the Gauss rule
for the measure |n . omega| dt = cos(t) dt in the angle t measured from
the inward normal (``cos_weight_gauss``).  That rule integrates p(t) cos(t)
exactly for every polynomial p of degree below 2*n_ang, so the weights per
edge sum to 2*length up to rounding for every n_ang >= 1, and the error
falls exponentially in n_ang for integrands smooth in t.

Monte Carlo rules: uniform samples on D x S^1 with constant weight
|D|*2*pi/N, and inflow samples drawn directly from the |n . omega|-density
(position uniform on the perimeter, t = arcsin(2u-1)) with constant weight
(total inflow measure)/N.  Drawing from the weighted density keeps weights
constant and avoids blow-up near grazing angles.

Interior and boundary rules alike give ``PhaseNodes``, phase points and
weights; ``side=OUTFLOW`` gives the mirror rules on the outflow boundary,
and ``build_quadrature`` picks the scheme and builds the whole set.
"""

from __future__ import annotations

import csv
import operator
from dataclasses import dataclass, field

import numpy as np

from .atomic_io import atomic_open
from .errors import ContractViolation

INFLOW = "inflow"
OUTFLOW = "outflow"


@dataclass(frozen=True)
class Rectangle:
    """Axis-aligned rectangle; the default is the unit square."""

    lo: tuple = (0.0, 0.0)
    hi: tuple = (1.0, 1.0)

    @property
    def area(self):
        return (self.hi[0] - self.lo[0]) * (self.hi[1] - self.lo[1])

    @property
    def edge_lengths(self):
        # edge order: bottom, right, top, left
        w = self.hi[0] - self.lo[0]
        h = self.hi[1] - self.lo[1]
        return (w, h, w, h)

    @property
    def perimeter(self):
        return sum(self.edge_lengths)

    @property
    def inflow_measure(self):
        # per edge: length * integral of cos(t) over the inward half circle
        return 2.0 * self.perimeter


UNIT_SQUARE = Rectangle()

# per edge (bottom, right, top, left): inward-normal angle, start corner
# (True takes hi on that axis, False lo) and direction of travel
_EDGE_INWARD_ANGLE = np.array([np.pi / 2.0, np.pi, 3.0 * np.pi / 2.0, 0.0])
_EDGE_START = np.array([[False, False], [True, False], [False, True], [False, False]])
_EDGE_DIRECTION = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 0.0], [0.0, 1.0]])


# -- node collections -----------------------------------------------------


@dataclass
class AngularNodes:
    """Direction nodes and weights on the unit circle; weights sum to 2*pi."""

    theta: np.ndarray
    weight: np.ndarray

    def __len__(self):
        return self.theta.size


@dataclass
class PhaseNodes:
    """Phase points (x, theta) and weights; every interior and boundary rule
    gives one.  A boundary rule's weights carry the |n . omega| factor.

    For tensor interior rules the rows are in spatial-major order: one block
    of K rows per spatial point, x constant within the block and theta the
    angular rule's K nodes in order.
    """

    x: np.ndarray
    theta: np.ndarray
    weight: np.ndarray

    def __len__(self):
        return self.weight.size


@dataclass
class QuadratureSet:
    """Interior, angular, and inflow-boundary rules used by one experiment."""

    interior: PhaseNodes
    angular: AngularNodes
    boundary: PhaseNodes
    scheme: str
    seeds: dict = field(default_factory=dict)
    domain: Rectangle = UNIT_SQUARE


def node_count(n, what, most=None, least=1):
    """``n`` as an int, once it is an integer from ``least`` to ``most`` (no
    upper bound when None); numpy integers pass, a bool, a float or NaN does
    not.  Anything else raises ContractViolation naming ``what``."""
    try:
        count = 0 if isinstance(n, bool) else operator.index(n)
    except TypeError:
        count = 0
    if count < least or (most is not None and count > most):
        bound = f">= {least}" if most is None else f"between {least} and {most}"
        raise ContractViolation(f"{what} must be an integer {bound}, got {n!r}")
    return count


# -- deterministic rules ---------------------------------------------------


def _legendre_sum(coef, x):
    """sum_k coef[k] P_k(x) by the Clenshaw recurrence of numpy's ``legval``."""
    c0, c1 = (coef[-2], coef[-1]) if len(coef) > 1 else (coef[0], 0.0)
    for nd in range(len(coef) - 1, 1, -1):
        c0, c1 = coef[nd - 2] - c1 * ((nd - 1) / nd), c0 + c1 * x * ((2 * nd - 1) / nd)
    return c0 + c1 * x


def _gauss_legendre(n):
    """Gauss-Legendre nodes/weights on [-1, 1], numpy's ``leggauss`` operation
    for operation, so bit for bit: eigenvalues of the scaled companion
    matrix, one Newton step, weights 1/(P_{n-1} P_n') symmetrised."""
    k = np.arange(n)
    p_n = np.zeros(n + 1)
    p_n[n] = 1.0
    dp_n = np.where(k % 2 == (n - 1) % 2, 2.0 * k + 1.0, 0.0)  # P_n' = sum of (2k+1) P_k, k = n-1, n-3, ...
    s = 1.0 / np.sqrt(2 * k + 1)
    off = k[1:] * s[:-1] * s[1:]
    x = np.linalg.eigvalsh(np.diag(off, -1) + np.diag(off, 1))
    dy, df = _legendre_sum(p_n, x), _legendre_sum(dp_n, x)
    x -= dy / df
    fm = _legendre_sum(p_n[1:], x)
    w = 1.0 / ((fm / np.abs(fm).max()) * (df / np.abs(df).max()))
    w, x = (w + w[::-1]) / 2, (x - x[::-1]) / 2
    return x, w * (2.0 / w.sum())


def gauss_interval(n, a=0.0, b=1.0):
    """Gauss-Legendre nodes/weights on [a, b].

    The rule on [-1, 1] comes from ``_gauss_legendre``, which equals
    ``numpy.polynomial.legendre.leggauss`` bit for bit; it is written out
    here so that a run never imports ``numpy.polynomial``."""
    y, w = _gauss_legendre(node_count(n, "Gauss node count"))
    return 0.5 * (b - a) * (y + 1.0) + a, 0.5 * (b - a) * w


def cos_weight_gauss(n):
    """Gauss nodes/weights for the measure cos(t) dt on (-pi/2, pi/2).

    The recurrence of the orthonormal polynomials comes from the Stieltjes
    procedure on a Gauss-Legendre grid; with 2n+64 points it integrates
    cos(t) times each polynomial involved to rounding.  Nodes and weights
    then follow by Golub-Welsch, scaled by the exact total mass 2.
    """
    n = node_count(n, "cos-weight Gauss node count")
    t, w = gauss_interval(2 * n + 64, -np.pi / 2.0, np.pi / 2.0)
    w = w * np.cos(t)
    alpha, beta = np.zeros(n), np.zeros(n + 1)
    p_prev, p = np.zeros_like(t), np.full_like(t, 1.0 / np.sqrt(w.sum()))
    for k in range(n):
        alpha[k] = w @ (t * p * p)
        q = (t - alpha[k]) * p - beta[k] * p_prev
        beta[k + 1] = np.sqrt(w @ (q * q))
        p_prev, p = p, q / beta[k + 1]
    off = beta[1:n]
    jacobi = np.diag(alpha) + np.diag(off, 1) + np.diag(off, -1)
    nodes, vectors = np.linalg.eigh(jacobi)
    return nodes, 2.0 * vectors[0] ** 2


def angular_rule(n):
    """Equispaced midpoint rule on the circle (spectral for periodic data)."""
    n = node_count(n, "angular node count")
    theta = 2.0 * np.pi * (np.arange(n) + 0.5) / n
    weight = np.full(n, 2.0 * np.pi / n)
    return AngularNodes(theta, weight)


def tensor_interior(domain, nx, ny, angular):
    xg, wx = gauss_interval(nx, domain.lo[0], domain.hi[0])
    yg, wy = gauss_interval(ny, domain.lo[1], domain.hi[1])
    X, Y = np.meshgrid(xg, yg, indexing="ij")
    sx = np.column_stack([X.ravel(), Y.ravel()])
    sw = np.outer(wx, wy).ravel()
    ns, na = sx.shape[0], len(angular)
    x = np.repeat(sx, na, axis=0)
    theta = np.tile(angular.theta, ns)
    weight = (sw[:, None] * angular.weight[None, :]).ravel()
    return PhaseNodes(x, theta, weight)


def _edge_nodes(domain, edge, s, t, weight, side):
    """Boundary phase nodes; node i sits on edge ``edge[i]`` at arclength
    fraction ``s[i]`` from its start corner, with direction at angle
    ``t[i]`` in (-pi/2, pi/2) from the inward normal (from the outward one
    on the outflow side), so that |n . omega| = cos t.  ``weight`` already
    carries that factor.  ``side`` is INFLOW or OUTFLOW, nothing else."""
    if side not in (INFLOW, OUTFLOW):
        raise ContractViolation(f"boundary side must be {INFLOW!r} or {OUTFLOW!r}, got {side!r}")
    lo, hi = np.asarray(domain.lo, dtype=float), np.asarray(domain.hi, dtype=float)
    corner = np.where(_EDGE_START, hi, lo)
    span = _EDGE_DIRECTION * (hi - lo)
    x = corner[edge] + s[:, None] * span[edge]
    base = _EDGE_INWARD_ANGLE + (np.pi if side == OUTFLOW else 0.0)
    return PhaseNodes(x, (base[edge] + t) % (2.0 * np.pi), weight)


def tensor_boundary(domain, n_pos, n_ang, side=INFLOW):
    """Per-edge tensor rule for the |n . omega|-weighted boundary measure.

    Gauss-Legendre in position crossed with ``cos_weight_gauss`` in angle,
    nodes ordered by edge, then angle, then position.
    """
    s, ws = gauss_interval(n_pos, 0.0, 1.0)
    t, wt = cos_weight_gauss(n_ang)
    edge, k, j = np.indices((4, n_ang, n_pos)).reshape(3, -1)
    weight = np.asarray(domain.edge_lengths)[edge] * ws[j] * wt[k]
    return _edge_nodes(domain, edge, s[j], t[k], weight, side)


# -- Monte Carlo rules -----------------------------------------------------


def mc_interior(domain, n_points, seed):
    """``n_points`` iid uniform phase points, constant weight |D|*2*pi/n."""
    n_points = node_count(n_points, "n_points")
    rng = np.random.default_rng(seed)
    x = np.column_stack(
        [
            rng.uniform(domain.lo[0], domain.hi[0], n_points),
            rng.uniform(domain.lo[1], domain.hi[1], n_points),
        ]
    )
    theta = rng.uniform(0.0, 2.0 * np.pi, n_points)
    weight = np.full(n_points, domain.area * 2.0 * np.pi / n_points)
    return PhaseNodes(x, theta, weight)


def mc_boundary(domain, n_points, seed, side=INFLOW):
    """``n_points`` draws from the |n . omega| density, constant weight."""
    n_points = node_count(n_points, "n_points")
    rng = np.random.default_rng(seed)
    lengths = np.asarray(domain.edge_lengths)
    edge = rng.choice(4, size=n_points, p=lengths / lengths.sum())
    s = rng.uniform(0.0, 1.0, n_points)
    # inverse CDF of the cos(t)/2 density on (-pi/2, pi/2)
    t = np.arcsin(2.0 * rng.uniform(0.0, 1.0, n_points) - 1.0)
    weight = np.full(n_points, domain.inflow_measure / n_points)
    return _edge_nodes(domain, edge, s, t, weight, side)


# -- quadrature sets --------------------------------------------------------

MONTE_CARLO = "monte-carlo"
TENSOR_GAUSS = "tensor-gauss"


def build_quadrature(
    domain=UNIT_SQUARE,
    scheme=TENSOR_GAUSS,
    n_spatial=24,
    n_angular=16,
    n_boundary=(8, 8),
    seed=0,
):
    """Assemble the full interior/angular/boundary quadrature set.

    Tensor: ``n_spatial`` Gauss nodes per axis crossed with the angular
    rule, and ``n_boundary`` = (positions, angles) per edge.  Monte Carlo:
    ``n_spatial`` interior samples drawn with ``seed`` and ``n_boundary``
    inflow samples drawn with ``seed + 1``.  The boundary weights sum to the
    inflow measure 2*perimeter up to rounding in both schemes.
    """
    angular = angular_rule(n_angular)
    if scheme == TENSOR_GAUSS:
        interior = tensor_interior(domain, n_spatial, n_spatial, angular)
        boundary = tensor_boundary(domain, *n_boundary)
    elif scheme == MONTE_CARLO:
        interior = mc_interior(domain, n_spatial, seed)
        boundary = mc_boundary(domain, n_boundary, seed + 1)
    else:
        raise ContractViolation(f"unknown quadrature scheme '{scheme}'")
    return QuadratureSet(
        interior,
        angular,
        boundary,
        scheme,
        seeds={"interior": seed, "boundary": seed + 1},
        domain=domain,
    )


def dump_quadrature_csv(quad, path):
    """Write every node as (kind, x1, x2, omega_angle, weight), whole or not
    at all (``atomic_open``)."""
    kinds = (("interior", quad.interior), ("angular", quad.angular), ("boundary", quad.boundary))
    with atomic_open(path, newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["kind", "x1", "x2", "omega_angle", "weight"])
        for kind, nodes in kinds:
            x = getattr(nodes, "x", None)  # angular nodes have no position
            for i in range(len(nodes)):
                position = ["", ""] if x is None else [repr(float(v)) for v in x[i]]
                writer.writerow([kind, *position] + [repr(float(a[i])) for a in (nodes.theta, nodes.weight)])

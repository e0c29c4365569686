"""Geometry and quadrature for the position-angle domain.

The phase space is a rectangle D crossed with the unit circle.  Three
measures matter: the product measure on D x S^1, the angular measure on
S^1, and the inflow-boundary measure |n . omega| dx domega on the part of
the boundary where directions point into D.  Both deterministic tensor
rules and seeded Monte Carlo samplers are provided for each.

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

``side=OUTFLOW`` gives the mirror boundary rules on the outflow boundary;
``build_quadrature`` picks the scheme and builds the whole set.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field

import numpy as np

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

# per edge (bottom, right, top, left): outward normal, inward-normal angle,
# start corner (True takes hi on that axis, False lo) and direction of travel
_EDGE_NORMALS = np.array([[0.0, -1.0], [1.0, 0.0], [0.0, 1.0], [-1.0, 0.0]])
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
class InteriorNodes:
    """Phase-space nodes approximating the product measure on D x S^1.

    For tensor rules the flat arrays are the spatial grid crossed with the
    angular rule in spatial-major order, and the spatial factors are kept
    so assembly can work in per-spatial-point blocks.
    """

    x: np.ndarray
    theta: np.ndarray
    weight: np.ndarray
    blocked: bool = False
    spatial_x: np.ndarray | None = None
    spatial_w: np.ndarray | None = None

    def __len__(self):
        return self.weight.size


@dataclass
class BoundaryNodes:
    """Boundary nodes with the |n . omega| factor folded into the weight."""

    x: np.ndarray
    theta: np.ndarray
    normal: np.ndarray
    n_dot_omega: np.ndarray
    weight: np.ndarray

    @property
    def omega(self):
        return np.stack([np.cos(self.theta), np.sin(self.theta)], axis=1)

    def __len__(self):
        return self.weight.size


@dataclass
class QuadratureSet:
    """Interior, angular, and inflow-boundary rules used by one experiment."""

    interior: InteriorNodes
    angular: AngularNodes
    boundary: BoundaryNodes
    scheme: str
    seeds: dict = field(default_factory=dict)
    domain: Rectangle = UNIT_SQUARE


# -- deterministic rules ---------------------------------------------------


def gauss_interval(n, a=0.0, b=1.0):
    """Gauss-Legendre nodes/weights on [a, b]."""
    if n < 1:
        raise ContractViolation("need at least one quadrature node")
    y, w = np.polynomial.legendre.leggauss(int(n))
    return 0.5 * (b - a) * (y + 1.0) + a, 0.5 * (b - a) * w


def cos_weight_gauss(n):
    """Gauss nodes/weights for the measure cos(t) dt on (-pi/2, pi/2).

    The recurrence of the orthonormal polynomials comes from the Stieltjes
    procedure on a Gauss-Legendre grid; with 2n+64 points it integrates
    cos(t) times each polynomial involved to rounding.  Nodes and weights
    then follow by Golub-Welsch, scaled by the exact total mass 2.
    """
    if n < 1:
        raise ContractViolation("need at least one quadrature node")
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
    if n < 1:
        raise ContractViolation("need at least one angular node")
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
    return InteriorNodes(x, theta, weight, blocked=True, spatial_x=sx, spatial_w=sw)


def _edge_nodes(domain, edge, s, t, weight, side):
    """Boundary nodes; node i sits on edge ``edge[i]`` at arclength fraction
    ``s[i]`` from its start corner, with direction at angle ``t[i]`` in
    (-pi/2, pi/2) from the inward normal (the outward one on the outflow
    side, where n . omega = +cos t instead of -cos t).  ``weight`` already
    carries the |n . omega| factor."""
    lo, hi = np.asarray(domain.lo, dtype=float), np.asarray(domain.hi, dtype=float)
    corner = np.where(_EDGE_START, hi, lo)
    span = _EDGE_DIRECTION * (hi - lo)
    x = corner[edge] + s[:, None] * span[edge]
    base = _EDGE_INWARD_ANGLE + (np.pi if side == OUTFLOW else 0.0)
    theta = (base[edge] + t) % (2.0 * np.pi)
    n_dot_omega = (1.0 if side == OUTFLOW else -1.0) * np.cos(t)
    return BoundaryNodes(x, theta, _EDGE_NORMALS[edge], n_dot_omega, weight)


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
    if n_points < 1:
        raise ContractViolation("n_points must be positive")
    rng = np.random.default_rng(seed)
    x = np.column_stack(
        [
            rng.uniform(domain.lo[0], domain.hi[0], n_points),
            rng.uniform(domain.lo[1], domain.hi[1], n_points),
        ]
    )
    theta = rng.uniform(0.0, 2.0 * np.pi, n_points)
    weight = np.full(n_points, domain.area * 2.0 * np.pi / n_points)
    return InteriorNodes(x, theta, weight, blocked=False)


def mc_boundary(domain, n_points, seed, side=INFLOW):
    """``n_points`` draws from the |n . omega| density, constant weight."""
    if n_points < 1:
        raise ContractViolation("n_points must be positive")
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
    """Write every node as (kind, x1, x2, omega_angle, weight)."""
    kinds = (("interior", quad.interior), ("angular", quad.angular), ("boundary", quad.boundary))
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["kind", "x1", "x2", "omega_angle", "weight"])
        for kind, nodes in kinds:
            x = getattr(nodes, "x", None)  # angular nodes have no position
            for i in range(len(nodes)):
                position = ["", ""] if x is None else [repr(float(v)) for v in x[i]]
                writer.writerow([kind, *position] + [repr(float(a[i])) for a in (nodes.theta, nodes.weight)])

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

# outward normals and inward-normal angles per edge (bottom, right, top, left)
_EDGE_NORMALS = np.array([[0.0, -1.0], [1.0, 0.0], [0.0, 1.0], [-1.0, 0.0]])
_EDGE_INWARD_ANGLE = np.array([np.pi / 2.0, np.pi, 3.0 * np.pi / 2.0, 0.0])


def _edge_points(domain, edge, s):
    """Map arclength fractions s in [0,1] to points on the given edge."""
    lo, hi = domain.lo, domain.hi
    s = np.asarray(s, dtype=float)
    x = np.empty((s.size, 2))
    if edge == 0:
        x[:, 0] = lo[0] + s * (hi[0] - lo[0])
        x[:, 1] = lo[1]
    elif edge == 1:
        x[:, 0] = hi[0]
        x[:, 1] = lo[1] + s * (hi[1] - lo[1])
    elif edge == 2:
        x[:, 0] = lo[0] + s * (hi[0] - lo[0])
        x[:, 1] = hi[1]
    elif edge == 3:
        x[:, 0] = lo[0]
        x[:, 1] = lo[1] + s * (hi[1] - lo[1])
    else:
        raise ContractViolation(f"no edge {edge}")
    return x


@dataclass
class PhasePoint:
    """A position in D paired with a unit direction on the circle."""

    x: np.ndarray
    theta: float

    def __post_init__(self):
        self.x = np.asarray(self.x, dtype=float)
        self.theta = float(self.theta)
        if self.x.shape != (2,):
            raise ContractViolation("position must be a 2-vector")


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
    edge: np.ndarray
    side: str = INFLOW

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


def tensor_boundary(domain, n_pos, n_ang, side=INFLOW):
    """Per-edge tensor rule for the |n . omega|-weighted boundary measure."""
    pos, wpos = gauss_interval(n_pos, 0.0, 1.0)
    tq, wt = cos_weight_gauss(n_ang)
    cos_t = np.cos(tq)
    xs, thetas, normals, ndws, weights, edges = [], [], [], [], [], []
    for edge in range(4):
        length = domain.edge_lengths[edge]
        base = _EDGE_INWARD_ANGLE[edge]
        if side == OUTFLOW:
            base = base + np.pi
        px = _edge_points(domain, edge, pos)
        for k in range(len(tq)):
            theta = (base + tq[k]) % (2.0 * np.pi)
            xs.append(px)
            thetas.append(np.full(n_pos, theta))
            normals.append(np.tile(_EDGE_NORMALS[edge], (n_pos, 1)))
            sign = 1.0 if side == OUTFLOW else -1.0
            ndws.append(np.full(n_pos, sign * cos_t[k]))
            weights.append(length * wpos * wt[k])
            edges.append(np.full(n_pos, edge, dtype=int))
    return BoundaryNodes(
        np.concatenate(xs),
        np.concatenate(thetas),
        np.concatenate(normals),
        np.concatenate(ndws),
        np.concatenate(weights),
        np.concatenate(edges),
        side=side,
    )


# -- Monte Carlo rules -----------------------------------------------------


def mc_interior(domain, n_points, seed):
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
    rng = np.random.default_rng(seed)
    lengths = np.asarray(domain.edge_lengths)
    edge = rng.choice(4, size=n_points, p=lengths / lengths.sum())
    s = rng.uniform(0.0, 1.0, n_points)
    # inverse CDF of the cos(t)/2 density on (-pi/2, pi/2)
    t = np.arcsin(2.0 * rng.uniform(0.0, 1.0, n_points) - 1.0)
    x = np.empty((n_points, 2))
    theta = np.empty(n_points)
    normal = np.empty((n_points, 2))
    for e in range(4):
        m = edge == e
        if not m.any():
            continue
        x[m] = _edge_points(domain, e, s[m])
        base = _EDGE_INWARD_ANGLE[e]
        if side == OUTFLOW:
            base = base + np.pi
        theta[m] = (base + t[m]) % (2.0 * np.pi)
        normal[m] = _EDGE_NORMALS[e]
    sign = 1.0 if side == OUTFLOW else -1.0
    ndw = sign * np.cos(t)
    weight = np.full(n_points, domain.inflow_measure / n_points)
    return BoundaryNodes(x, theta, normal, ndw, weight, edge.astype(int), side=side)


# -- spec-level samplers ----------------------------------------------------

MONTE_CARLO = "monte-carlo"
TENSOR_GAUSS = "tensor-gauss"


def sample_interior(domain, n_points, scheme=MONTE_CARLO, seed=0, angular=None):
    """Interior nodes for the given scheme.

    Monte Carlo: ``n_points`` iid uniform phase points, constant weight
    |D|*2*pi/n.  Tensor: ``n_points`` is (nx, ny) and ``angular`` supplies
    the angular rule the grid is crossed with.
    """
    if scheme == MONTE_CARLO:
        if int(n_points) <= 0:
            raise ContractViolation("n_points must be positive")
        return mc_interior(domain, int(n_points), seed)
    if scheme == TENSOR_GAUSS:
        nx, ny = (n_points, n_points) if np.isscalar(n_points) else n_points
        if angular is None:
            raise ContractViolation("tensor interior rule needs an angular rule")
        return tensor_interior(domain, int(nx), int(ny), angular)
    raise ContractViolation(f"unknown quadrature scheme '{scheme}'")


def sample_inflow_boundary(domain, n_points, scheme=MONTE_CARLO, seed=0, side=INFLOW):
    """Inflow-boundary nodes; weights sum to the exact inflow measure.

    The sum is 2*perimeter up to rounding for both schemes and every node
    count; ``side=OUTFLOW`` gives the mirror rule on the outflow boundary.
    Monte Carlo: ``n_points`` samples from the |n . omega|-weighted
    density, constant weight.  Tensor: ``n_points`` is (positions, angles)
    per edge, Gauss-Legendre in position crossed with ``cos_weight_gauss``
    in angle; exponentially accurate for integrands smooth in the angle.
    """
    if scheme == MONTE_CARLO:
        if int(n_points) <= 0:
            raise ContractViolation("n_points must be positive")
        return mc_boundary(domain, int(n_points), seed, side=side)
    if scheme == TENSOR_GAUSS:
        n_pos, n_ang = (n_points, n_points) if np.isscalar(n_points) else n_points
        return tensor_boundary(domain, int(n_pos), int(n_ang), side=side)
    raise ContractViolation(f"unknown quadrature scheme '{scheme}'")


def build_quadrature(
    domain=UNIT_SQUARE,
    scheme=TENSOR_GAUSS,
    n_spatial=24,
    n_angular=16,
    n_boundary=(8, 8),
    seed=0,
):
    """Assemble the full interior/angular/boundary quadrature set."""
    angular = angular_rule(int(n_angular))
    if scheme == TENSOR_GAUSS:
        interior = sample_interior(domain, n_spatial, TENSOR_GAUSS, angular=angular)
        boundary = sample_inflow_boundary(domain, n_boundary, TENSOR_GAUSS)
    elif scheme == MONTE_CARLO:
        interior = sample_interior(domain, n_spatial, MONTE_CARLO, seed=seed)
        boundary = sample_inflow_boundary(
            domain, n_boundary, MONTE_CARLO, seed=seed + 1
        )
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
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["kind", "x1", "x2", "omega_angle", "weight"])
        for i in range(len(quad.interior)):
            writer.writerow(
                [
                    "interior",
                    repr(float(quad.interior.x[i, 0])),
                    repr(float(quad.interior.x[i, 1])),
                    repr(float(quad.interior.theta[i])),
                    repr(float(quad.interior.weight[i])),
                ]
            )
        for i in range(len(quad.angular)):
            writer.writerow(
                ["angular", "", "", repr(float(quad.angular.theta[i])), repr(float(quad.angular.weight[i]))]
            )
        for i in range(len(quad.boundary)):
            writer.writerow(
                [
                    "boundary",
                    repr(float(quad.boundary.x[i, 0])),
                    repr(float(quad.boundary.x[i, 1])),
                    repr(float(quad.boundary.theta[i])),
                    repr(float(quad.boundary.weight[i])),
                ]
            )

"""Geometry, classification, and quadrature measures."""

import csv

import numpy as np
import pytest
from scipy.integrate import quad

from uzawa_transport import phase_space as ps
from uzawa_transport.errors import ContractViolation

TWO_PI = 2.0 * np.pi


def test_tensor_interior_integrates_constants_exactly():
    for n_ang in (8, 16, 32):
        ang = ps.angular_rule(n_ang)
        nodes = ps.tensor_interior(ps.UNIT_SQUARE, 8, 8, ang)
        assert nodes.weight.sum() == pytest.approx(TWO_PI, abs=1e-12)


def test_tensor_interior_analytic_integral():
    ang = ps.angular_rule(32)
    nodes = ps.tensor_interior(ps.UNIT_SQUARE, 16, 16, ang)
    f = np.sin(np.pi * nodes.x[:, 0]) * np.sin(np.pi * nodes.x[:, 1])
    exact = (2.0 / np.pi) ** 2 * TWO_PI
    assert nodes.weight @ f == pytest.approx(exact, abs=1e-8)


def test_mc_interior_mean_within_three_sigma():
    nodes = ps.mc_interior(ps.UNIT_SQUARE, 1_000_000, seed=42)
    f = nodes.x[:, 0]
    estimate = nodes.weight @ f
    exact = 0.5 * TWO_PI
    # weights are constant 2*pi/N, so the estimator std follows from the
    # sample variance of f
    sigma = TWO_PI * f.std() / np.sqrt(f.size)
    assert abs(estimate - exact) <= 3.0 * sigma


def test_mc_interior_weights_constant_and_positive():
    nodes = ps.mc_interior(ps.UNIT_SQUARE, 1000, seed=0)
    assert np.all(nodes.weight > 0)
    assert np.allclose(nodes.weight, TWO_PI / 1000)


def test_inflow_measure_tensor_exact():
    # small angular rules are where a rule not exact for cos(t) dt misses
    # the measure most
    for side in (ps.INFLOW, ps.OUTFLOW):
        for n_ang in range(1, 9):
            nodes = ps.tensor_boundary(ps.UNIT_SQUARE, 8, n_ang, side=side)
            assert nodes.weight.sum() == pytest.approx(
                ps.UNIT_SQUARE.inflow_measure, abs=1e-12
            )
            # integrating g=1 against the rule is the same sum
            assert np.all(nodes.weight > 0)


def test_inflow_measure_mc():
    nodes = ps.mc_boundary(ps.UNIT_SQUARE, 100_000, seed=3)
    assert nodes.weight.sum() == pytest.approx(8.0, abs=1e-3)


def test_inflow_nodes_point_inward():
    # inflow directions point into D, outflow ones out of it; every node
    # sits on the edge whose outward normal it carries
    for domain in (ps.UNIT_SQUARE, ps.Rectangle((0.0, -1.0), (2.0, 0.5))):
        for side, sign in ((ps.INFLOW, -1.0), (ps.OUTFLOW, 1.0)):
            for scheme_nodes in (
                ps.tensor_boundary(domain, 6, 6, side=side),
                ps.mc_boundary(domain, 5000, seed=1, side=side),
            ):
                assert np.all(sign * scheme_nodes.n_dot_omega > 0)
                recomputed = np.einsum("ij,ij->i", scheme_nodes.normal, scheme_nodes.omega)
                np.testing.assert_allclose(recomputed, scheme_nodes.n_dot_omega, atol=1e-12)
                n, x = scheme_nodes.normal, scheme_nodes.x
                support = np.maximum(n, 0.0) @ domain.hi + np.minimum(n, 0.0) @ domain.lo
                np.testing.assert_allclose(np.einsum("ij,ij->i", n, x), support, atol=1e-15)
                assert np.all((x >= domain.lo) & (x <= domain.hi))


def test_outflow_mirror():
    for nodes in (
        ps.tensor_boundary(ps.UNIT_SQUARE, 8, 8, side=ps.OUTFLOW),
        ps.mc_boundary(ps.UNIT_SQUARE, 5000, seed=2, side=ps.OUTFLOW),
    ):
        assert np.all(nodes.n_dot_omega > 0)
        assert nodes.weight.sum() == pytest.approx(8.0, abs=1e-12)


def test_boundary_smooth_integrand_high_accuracy():
    # cos^2 t is smooth in t, and 16 nodes of the cos(t) dt Gauss rule
    # already integrate it against cos(t) to rounding
    nodes = ps.tensor_boundary(ps.UNIT_SQUARE, 16, 16)
    g = nodes.n_dot_omega**2  # cos^2 t
    # per edge: int cos^3 = 4/3, four edges
    assert nodes.weight @ g == pytest.approx(4 * 4.0 / 3.0, abs=1e-12)


def test_boundary_rule_converges_exponentially_in_angle():
    # x2 * exp(sin theta) is smooth in t, but on the top edge it is not
    # smooth in s = sin t, so a Gauss-Legendre rule in s would converge
    # only algebraically here.  x2 is linear along each edge, so the
    # position rule is exact and the error is the angular rule's alone.
    # per edge (bottom, right, top, left): inward angle, mean of x2
    edges = [(0.5 * np.pi, 0.0), (np.pi, 0.5), (1.5 * np.pi, 1.0), (0.0, 0.5)]
    exact = sum(
        mean_x2
        * quad(
            lambda t, base=base: np.exp(np.sin(base + t)) * np.cos(t),
            -0.5 * np.pi,
            0.5 * np.pi,
            epsabs=1e-13,
            epsrel=1e-13,
        )[0]
        for base, mean_x2 in edges
    )
    errs = []
    for n_ang in (4, 8, 12):
        nodes = ps.tensor_boundary(ps.UNIT_SQUARE, 2, n_ang)
        g = nodes.x[:, 1] * np.exp(np.sin(nodes.theta))
        errs.append(abs(nodes.weight @ g - exact))
    assert errs[2] <= 1e-9
    assert errs[1] <= errs[0] / 10.0 and errs[2] <= errs[1] / 10.0


def test_seeded_determinism():
    a = ps.mc_interior(ps.UNIT_SQUARE, 500, seed=9)
    b = ps.mc_interior(ps.UNIT_SQUARE, 500, seed=9)
    assert np.array_equal(a.x, b.x) and np.array_equal(a.theta, b.theta)
    c = ps.mc_boundary(ps.UNIT_SQUARE, 500, seed=9)
    d = ps.mc_boundary(ps.UNIT_SQUARE, 500, seed=9)
    assert np.array_equal(c.x, d.x) and np.array_equal(c.theta, d.theta)


def test_mc_convergence_rate_interior():
    # fixed smooth integrand; |error| regresses to slope -1/2 on log-log
    def integrand(nodes):
        return np.sin(np.pi * nodes.x[:, 0]) * np.cos(nodes.theta) ** 2 + nodes.x[:, 1]

    exact = (2.0 / np.pi) * np.pi + 0.5 * TWO_PI  # sin term * int cos^2 + x2 term
    sizes = [100, 10_000, 1_000_000]
    errs = []
    for n in sizes:
        trials = [
            abs(integrand(ps.mc_interior(ps.UNIT_SQUARE, n, seed=17 + 13 * r)) @ np.full(n, TWO_PI / n) - exact)
            for r in range(8)
        ]
        errs.append(np.mean(trials))
    slope = np.polyfit(np.log(sizes), np.log(errs), 1)[0]
    assert -0.65 <= slope <= -0.35


def test_unknown_scheme_rejected():
    with pytest.raises(ContractViolation):
        ps.build_quadrature(scheme="sparse-grid")
    with pytest.raises(ContractViolation):
        ps.build_quadrature(scheme="qmc", n_spatial=10, n_boundary=10)


def test_mc_rules_need_a_sample():
    with pytest.raises(ContractViolation):
        ps.mc_interior(ps.UNIT_SQUARE, 0, seed=0)
    with pytest.raises(ContractViolation):
        ps.mc_boundary(ps.UNIT_SQUARE, 0, seed=0)


def test_quadrature_csv_dump_reparses(tmp_path):
    quad = ps.build_quadrature(n_spatial=3, n_angular=4, n_boundary=(2, 2))
    path = tmp_path / "quad.csv"
    ps.dump_quadrature_csv(quad, path)
    with open(path) as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == len(quad.interior) + len(quad.angular) + len(quad.boundary)
    interior_rows = [r for r in rows if r["kind"] == "interior"]
    parsed = np.array([float(r["weight"]) for r in interior_rows])
    assert np.array_equal(parsed, quad.interior.weight)  # lossless re-parse
    parsed_x = np.array([float(r["x1"]) for r in interior_rows])
    assert np.array_equal(parsed_x, quad.interior.x[:, 0])

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


def _outward_normals(domain, x):
    """Each node's outward normal, read from the edge its position lies on
    (x1 = lo or hi, x2 = lo or hi); every node lies on exactly one edge."""
    lo, hi = np.asarray(domain.lo), np.asarray(domain.hi)
    on = np.stack([x[:, 1] == lo[1], x[:, 0] == hi[0], x[:, 1] == hi[1], x[:, 0] == lo[0]], axis=1)
    assert np.all(on.sum(axis=1) == 1)
    return np.array([[0.0, -1.0], [1.0, 0.0], [0.0, 1.0], [-1.0, 0.0]])[on.argmax(axis=1)]


def _omega(nodes):
    return np.column_stack([np.cos(nodes.theta), np.sin(nodes.theta)])


def _normal_component(domain, nodes):
    """n . omega at each node, n from its position and omega from its angle."""
    return np.einsum("ij,ij->i", _outward_normals(domain, nodes.x), _omega(nodes))


def test_inflow_nodes_point_inward():
    # inflow directions point into D, outflow ones out of it; every node
    # sits on one edge of D
    for domain in (ps.UNIT_SQUARE, ps.Rectangle((0.0, -1.0), (2.0, 0.5))):
        for side, sign in ((ps.INFLOW, -1.0), (ps.OUTFLOW, 1.0)):
            for scheme_nodes in (
                ps.tensor_boundary(domain, 6, 6, side=side),
                ps.mc_boundary(domain, 5000, seed=1, side=side),
            ):
                assert np.all(sign * _normal_component(domain, scheme_nodes) > 0)
                assert np.all((scheme_nodes.x >= domain.lo) & (scheme_nodes.x <= domain.hi))


def test_outflow_mirror():
    # the outflow rule is the inflow rule at the same positions and
    # weights with omega -> -omega
    for rule, args in ((ps.tensor_boundary, (8, 8)), (ps.mc_boundary, (5000, 2))):
        inflow = rule(ps.UNIT_SQUARE, *args)
        outflow = rule(ps.UNIT_SQUARE, *args, side=ps.OUTFLOW)
        assert np.array_equal(outflow.x, inflow.x) and np.array_equal(outflow.weight, inflow.weight)
        np.testing.assert_allclose(_omega(outflow), -_omega(inflow), atol=1e-15)
        assert np.all(_normal_component(ps.UNIT_SQUARE, outflow) > 0)
        assert outflow.weight.sum() == pytest.approx(8.0, abs=1e-12)


def test_tensor_boundary_orders_edge_angle_position():
    # nodes run by edge (bottom, right, top, left), then angle, then position:
    # within an edge theta is constant along positions and x along angles
    n_pos, n_ang = 5, 3
    inflow = ps.tensor_boundary(ps.UNIT_SQUARE, n_pos, n_ang)
    outflow = ps.tensor_boundary(ps.UNIT_SQUARE, n_pos, n_ang, side=ps.OUTFLOW)
    for nodes, sign in ((inflow, 1.0), (outflow, -1.0)):
        theta = nodes.theta.reshape(4, n_ang, n_pos)
        x = nodes.x.reshape(4, n_ang, n_pos, 2)
        assert np.array_equal(theta, np.broadcast_to(theta[:, :, :1], theta.shape))
        assert np.array_equal(x, np.broadcast_to(x[:, :1], x.shape))
        assert np.all(np.diff(theta[:, :, 0], axis=1) != 0)
        assert np.all(np.any(np.diff(x[:, 0], axis=1) != 0, axis=2))
        normals = _outward_normals(ps.UNIT_SQUARE, nodes.x).reshape(4, n_ang * n_pos, 2)
        assert np.array_equal(normals[:, 0], [[0.0, -1.0], [1.0, 0.0], [0.0, 1.0], [-1.0, 0.0]])
        assert np.array_equal(normals, np.broadcast_to(normals[:, :1], normals.shape))
        # the outflow rule is the inflow rule at the same positions and weights, omega -> -omega
        assert np.array_equal(nodes.x, inflow.x) and np.array_equal(nodes.weight, inflow.weight)
        np.testing.assert_allclose(_omega(nodes), sign * _omega(inflow), atol=1e-15)


def test_gauss_interval_is_numpys_leggauss_bit_for_bit():
    for n in range(1, 301):
        y, w = np.polynomial.legendre.leggauss(n)
        for a, b in ((0.0, 1.0), (-np.pi / 2.0, np.pi / 2.0)):
            x, wx = ps.gauss_interval(n, a, b)
            assert np.array_equal(x, 0.5 * (b - a) * (y + 1.0) + a), n
            assert np.array_equal(wx, 0.5 * (b - a) * w), n


def test_gauss_interval_integrates_monomials_to_its_degree():
    # above n = 17 the rounding of the nodes themselves (leggauss's too)
    # puts the highest powers past 1e-14
    for n in range(1, 18):
        x, w = ps.gauss_interval(n, 0.0, 1.0)
        k = np.arange(2 * n)
        np.testing.assert_allclose((x[None, :] ** k[:, None]) @ w, 1.0 / (k + 1), rtol=1e-14, atol=0)


def test_boundary_smooth_integrand_high_accuracy():
    # cos^2 t is smooth in t, and 16 nodes of the cos(t) dt Gauss rule
    # already integrate it against cos(t) to rounding
    nodes = ps.tensor_boundary(ps.UNIT_SQUARE, 16, 16)
    cos_t = np.abs(_normal_component(ps.UNIT_SQUARE, nodes))
    # per edge (the rule runs edge by edge): int cos^3 = 4/3
    per_edge = (nodes.weight * cos_t**2).reshape(4, -1).sum(axis=1)
    np.testing.assert_allclose(per_edge, 4.0 / 3.0, rtol=0, atol=1e-12)


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
    for n in (0, 2.5, float("nan"), 3.0, True):
        with pytest.raises(ContractViolation, match="n_points"):
            ps.mc_interior(ps.UNIT_SQUARE, n, seed=0)
        with pytest.raises(ContractViolation, match="n_points"):
            ps.mc_boundary(ps.UNIT_SQUARE, n, seed=0)


@pytest.mark.parametrize(
    "rule, what",
    [
        (ps.gauss_interval, "Gauss node count"),
        (ps.cos_weight_gauss, "cos-weight Gauss node count"),
        (ps.angular_rule, "angular node count"),
    ],
    ids=["gauss_interval", "cos_weight_gauss", "angular_rule"],
)
@pytest.mark.parametrize("n", [0, -1, 2.5, float("nan"), 3.0, True])
def test_deterministic_rules_need_an_integer_node_count(rule, what, n):
    with pytest.raises(ContractViolation, match=what):
        rule(n)


def test_node_counts_accept_numpy_integers():
    for rule in (ps.gauss_interval, ps.cos_weight_gauss):
        for a, b in zip(rule(np.int64(5)), rule(5)):
            assert a.tobytes() == b.tobytes()
    assert ps.angular_rule(np.int32(6)).theta.tobytes() == ps.angular_rule(6).theta.tobytes()
    drawn = ps.mc_interior(ps.UNIT_SQUARE, np.int64(7), seed=3)
    assert drawn.x.tobytes() == ps.mc_interior(ps.UNIT_SQUARE, 7, seed=3).x.tobytes()


def test_a_fractional_spatial_count_builds_no_quadrature():
    # gauss_interval(2.5) once gave a 2-node rule, so this built a 2 x 2 interior
    with pytest.raises(ContractViolation, match="Gauss node count"):
        ps.build_quadrature(n_spatial=2.5)


@pytest.mark.parametrize("side", ["outfow", "", None, "OUTFLOW"])
def test_boundary_rules_refuse_an_unknown_side(side):
    with pytest.raises(ContractViolation, match="side"):
        ps.tensor_boundary(ps.UNIT_SQUARE, 2, 2, side=side)
    with pytest.raises(ContractViolation, match="side"):
        ps.mc_boundary(ps.UNIT_SQUARE, 8, seed=0, side=side)


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

"""Transport/scattering operators, kernels, and residual assembly."""

import numpy as np
import pytest
import sympy

from uzawa_transport import config as cf
from uzawa_transport import diagnostics_io as dio
from uzawa_transport import kinetic_ops as ko
from uzawa_transport import lagrangian as lg
from uzawa_transport import network as net
from uzawa_transport import phase_space as ps
from uzawa_transport import presets
from uzawa_transport.errors import ContractViolation

TWO_PI = 2.0 * np.pi


def _zero_problem(sigma_a=1.0, sigma_t=0.0, kernel=None, f=None, g=None):
    return ko.ProblemSpec(
        ko.CoefficientField("constant", (sigma_a,)),
        sigma_t,
        kernel or ko.isotropic_kernel(),
        ko.SourceAndInflow(f, g),
    )


# -- transport ----------------------------------------------------------------


def _transport_residual(value, directional, x, theta, sigma_a):
    # sigma_t = 0 and f = 0: the assembled residual is the transport part alone
    problem = _zero_problem(sigma_a=sigma_a)
    field = ko.ReferenceSolution(value, directional)
    terms = ko.sample_terms(field, np.array([x]), [theta], ps.angular_rule(8), problem)
    return float(terms["residual"][0])


def test_transport_apply_hand_values():
    # u = x1, omega=(1,0): directional derivative 1, so T u = 1 + x1
    r = _transport_residual(lambda x, t: x[:, 0], lambda x, t: np.cos(t), [0.3, 0.5], 0.0, 1.0)
    assert r == pytest.approx(1.3)
    # sigma_a = 0 and omega perpendicular to the gradient
    constant = (lambda x, t: np.full(len(t), 123.0), lambda x, t: 0.0 * t)
    assert _transport_residual(*constant, [0.4, 0.6], 1.1, 0.0) == 0.0


def test_transport_symbolic_oracle():
    x1, x2, th = sympy.symbols("x1 x2 th")
    u_sym = sympy.sin(sympy.pi * x1) * sympy.sin(sympy.pi * x2)
    theta = 0.3
    point = np.array([0.25, 0.5])
    du_sym = sympy.cos(th) * sympy.diff(u_sym, x1) + sympy.sin(th) * sympy.diff(u_sym, x2)
    subs = {x1: point[0], x2: point[1], th: theta}
    expected = float(du_sym.subs(subs)) + 1.0 * float(u_sym.subs(subs))
    u_fn = sympy.lambdify((x1, x2), u_sym, "numpy")
    du_fn = sympy.lambdify((x1, x2, th), du_sym, "numpy")
    r = _transport_residual(
        lambda x, t: u_fn(x[:, 0], x[:, 1]), lambda x, t: du_fn(x[:, 0], x[:, 1], t), point, theta, 1.0
    )
    assert r == pytest.approx(expected, abs=1e-10)


def test_transport_identity_refines():
    # || T u ||^2 = ||dir grad||^2 + sigma_a (||u||_out^2 - ||u||_in^2)
    #             + sigma_a^2 ||u||^2, for smooth u; quadrature error must
    # drop by >= 4x when node counts double
    sigma_a = 1.0

    def u_fn(x, theta):
        return np.sin(np.pi * x[:, 0]) * np.sin(np.pi * x[:, 1]) + 0.3 * x[:, 0] * np.cos(theta)

    def du_fn(x, theta):
        gx = np.pi * np.cos(np.pi * x[:, 0]) * np.sin(np.pi * x[:, 1]) + 0.3 * np.cos(theta)
        gy = np.pi * np.sin(np.pi * x[:, 0]) * np.cos(np.pi * x[:, 1])
        return np.cos(theta) * gx + np.sin(theta) * gy

    def identity_gap(n):
        ang = ps.angular_rule(2 * n)
        interior = ps.tensor_interior(ps.UNIT_SQUARE, n, n, ang)
        inflow = ps.tensor_boundary(ps.UNIT_SQUARE, n, n)
        outflow = ps.tensor_boundary(ps.UNIT_SQUARE, n, n, side=ps.OUTFLOW)
        u_i = u_fn(interior.x, interior.theta)
        du_i = du_fn(interior.x, interior.theta)
        tu = du_i + sigma_a * u_i
        lhs = interior.weight @ tu**2
        rhs = (
            interior.weight @ du_i**2
            + sigma_a
            * (
                outflow.weight @ u_fn(outflow.x, outflow.theta) ** 2
                - inflow.weight @ u_fn(inflow.x, inflow.theta) ** 2
            )
            + sigma_a**2 * (interior.weight @ u_i**2)
        )
        return abs(lhs - rhs)

    gaps = [identity_gap(n) for n in (4, 8, 16)]
    assert gaps[1] <= gaps[0] / 4.0
    assert gaps[2] <= gaps[1] / 4.0 or gaps[2] < 1e-12


# -- scattering ---------------------------------------------------------------


@pytest.mark.parametrize("n_ang", [8, 16, 33, 64])
@pytest.mark.parametrize("kernel", [ko.isotropic_kernel(), ko.forward_peaked_kernel(0.1), ko.forward_peaked_kernel(1.0)])
def test_scattering_annihilates_constants(n_ang, kernel):
    ang = ps.angular_rule(n_ang)
    out = ko.scattering_apply(np.full(n_ang, 3.7), ang, kernel, 9.9)
    assert np.abs(out).max() <= 1e-12


def test_scattering_isotropic_cosine_eigenfunction():
    ang = ps.angular_rule(32)
    u = np.cos(ang.theta)
    out = ko.scattering_apply(u, ang, ko.isotropic_kernel(), 9.9)
    assert np.abs(out - 9.9 * u).max() <= 1e-10


@pytest.mark.parametrize("n", [1, 2, 3])
def test_scattering_isotropic_modes(n):
    ang = ps.angular_rule(32)
    u = np.cos(n * ang.theta)
    out = ko.scattering_apply(u, ang, ko.isotropic_kernel(), 2.5)
    assert np.abs(out - 2.5 * u).max() <= 1e-8


def test_forward_peaked_degenerates_to_isotropic():
    # the normalized kernel deviates from isotropic at first order in
    # 1/epsilon, so the discrepancy shrinks linearly and reaches 1e-8 once
    # epsilon is large enough
    ang = ps.angular_rule(32)
    rng = np.random.default_rng(0)
    u = rng.normal(size=32)
    b = ko.scattering_apply(u, ang, ko.isotropic_kernel(), 1.0)

    def gap(eps):
        a = ko.scattering_apply(u, ang, ko.forward_peaked_kernel(eps), 1.0)
        return np.abs(a - b).max()

    assert gap(1e9) <= 1e-8
    assert gap(1e3) <= 10.0 * gap(1e4) * 1.05  # first-order rate in 1/eps
    assert gap(1e4) <= gap(1e3)


def test_scattering_norm_bound():
    # discrete operator norm never exceeds 2 sigma_t (1 + 1e-6)
    sigma_t = 1.3
    ang = ps.angular_rule(24)
    rng = np.random.default_rng(7)
    for kernel in (ko.isotropic_kernel(), ko.forward_peaked_kernel(0.3)):
        for _ in range(50):
            u = rng.normal(size=24)
            su = ko.scattering_apply(u, ang, kernel, sigma_t)
            ratio = np.sqrt(ang.weight @ su**2) / np.sqrt(ang.weight @ u**2)
            assert ratio <= 2.0 * sigma_t * (1.0 + 1e-6)


def test_scattering_slice_length_contract():
    ang = ps.angular_rule(16)
    with pytest.raises(ContractViolation):
        ko.scattering_apply(np.ones(15), ang, ko.isotropic_kernel(), 1.0)


@pytest.mark.parametrize("kernel", [ko.isotropic_kernel(), ko.forward_peaked_kernel(0.1)])
@pytest.mark.parametrize("form", ["shared-matrix", "per-slice"])
def test_scattering_adjoint_identity(kernel, form):
    # <mean(u), s> = <u, adjoint(s)> for both forms of the kernel rows
    ang = ps.angular_rule(12)
    rng = np.random.default_rng(11)
    u = rng.normal(size=(7, 12))
    if form == "shared-matrix":
        rows = kernel.matrix(ang)
    else:
        rows = kernel.rows(rng.uniform(0, TWO_PI, 7), ang)[:, None, :]
    mean = ko.scattering_mean(u, rows, ang.weight)
    s = rng.normal(size=mean.shape)
    adj = ko.scattering_adjoint(s, rows, ang.weight)
    assert adj.shape == u.shape
    lhs, rhs = np.sum(mean * s), np.sum(u * adj)
    assert abs(lhs - rhs) <= 1e-13 * abs(lhs)


def test_kernel_row_normalization_off_grid():
    ang = ps.angular_rule(32)
    kernel = ko.forward_peaked_kernel(0.2)
    thetas = np.random.default_rng(3).uniform(0, TWO_PI, 10)
    rows = kernel.rows(thetas, ang)
    sums = rows @ ang.weight / TWO_PI
    np.testing.assert_allclose(sums, 1.0, atol=1e-12)


# -- spectral eigenvalues -----------------------------------------------------


def test_legendre_eigenvalue_zeroth_always_zero():
    for kernel in (ko.isotropic_kernel(), ko.forward_peaked_kernel(0.5)):
        assert abs(ko.angular_eigenvalue(0, kernel, 3.3)) <= 1e-12


def test_legendre_eigenvalue_isotropic():
    sigma_t = 2.5
    kernel = ko.isotropic_kernel()
    assert ko.angular_eigenvalue(1, kernel, sigma_t) == pytest.approx(sigma_t, abs=1e-10)
    assert ko.angular_eigenvalue(2, kernel, sigma_t) == pytest.approx(sigma_t, abs=1e-10)


def test_legendre_eigenvalue_forward_peaked_smaller_than_isotropic():
    # angular persistence: a peaked kernel damps low modes less
    sigma_t = 1.0
    mu1_fp = ko.angular_eigenvalue(1, ko.forward_peaked_kernel(0.1), sigma_t)
    mu1_iso = ko.angular_eigenvalue(1, ko.isotropic_kernel(), sigma_t)
    assert 0.0 < mu1_fp < mu1_iso


@pytest.mark.parametrize("epsilon, mu1", [(0.1, 0.05140017), (0.5, 0.30222534)])
def test_angular_eigenvalue_matches_discrete_operator(epsilon, mu1):
    # cos(n theta) is an eigenvector of the renormalized kernel on the circle
    sigma_t, ang = 1.3, ps.angular_rule(64)
    kernel = ko.forward_peaked_kernel(epsilon)
    assert ko.angular_eigenvalue(1, kernel, 1.0) == pytest.approx(mu1, abs=1e-8)
    for n in (1, 2, 3):
        u = np.cos(n * ang.theta)
        out = ko.scattering_apply(u, ang, kernel, sigma_t)
        assert np.abs(out - ko.angular_eigenvalue(n, kernel, sigma_t) * u).max() <= 1e-8


# -- residual assembly ----------------------------------------------------------


def test_residual_zero_network_zero_source():
    params = net.init_params((4, 8, 1), seed=0)
    zero = net.unflatten(np.zeros(params.n_params), params.widths)
    ang = ps.angular_rule(8)
    problem = _zero_problem(sigma_a=1.0)
    r = ko.sample_terms(zero, np.array([[0.4, 0.6]]), [0.5], ang, problem)["residual"][0]
    assert r == 0.0


def test_residual_zero_network_unit_source():
    params = net.init_params((4, 8, 1), seed=0)
    zero = net.unflatten(np.zeros(params.n_params), params.widths)
    ang = ps.angular_rule(8)
    problem = _zero_problem(sigma_a=1.0, f=lambda x, t: np.ones(np.atleast_2d(x).shape[0]))
    r = ko.sample_terms(zero, np.array([[0.4, 0.6]]), [0.5], ang, problem)["residual"][0]
    assert r == pytest.approx(-1.0)


def test_manufactured_residual_vanishes():
    # f := T u* with angle-independent u*, so S u* = 0 discretely as well;
    # checked through a network-free direct evaluation of the residual form
    sigma_a, sigma_t = 1.0, 1.0

    def u_fn(x, theta):
        x = np.atleast_2d(x)
        return np.sin(np.pi * x[:, 0]) * np.sin(np.pi * x[:, 1])

    def du_fn(x, theta):
        x = np.atleast_2d(x)
        theta = np.atleast_1d(theta)
        gx = np.pi * np.cos(np.pi * x[:, 0]) * np.sin(np.pi * x[:, 1])
        gy = np.pi * np.sin(np.pi * x[:, 0]) * np.cos(np.pi * x[:, 1])
        return np.cos(theta) * gx + np.sin(theta) * gy

    ang = ps.angular_rule(16)
    kernel = ko.isotropic_kernel()
    rng = np.random.default_rng(1)
    for _ in range(10):
        x = rng.uniform(0.05, 0.95, (1, 2))
        theta = rng.uniform(0, TWO_PI, 1)
        u_slice = u_fn(np.repeat(x, 16, axis=0), ang.theta)
        scat = ko.scattering_apply(u_slice, ang, kernel, sigma_t)
        resid = (
            du_fn(x, theta)[0]
            + (sigma_a + sigma_t) * u_fn(x, theta)[0]
            - sigma_t * (kernel.rows(theta, ang)[0] * ang.weight * u_slice).sum() / TWO_PI
            - (du_fn(x, theta)[0] + sigma_a * u_fn(x, theta)[0])
        )
        assert abs(resid) <= 1e-10
        assert np.abs(scat).max() <= 1e-10  # angle-independent slice


def test_blocked_and_sample_terms_agree_on_grid_directions():
    params = net.init_params((4, 10, 1), seed=5)
    ang = ps.angular_rule(8)
    problem = _zero_problem(sigma_a=0.7, sigma_t=1.3)
    spatial = np.array([[0.3, 0.4], [0.8, 0.2]])
    x = np.repeat(spatial, 8, axis=0)
    theta = np.tile(ang.theta, 2)
    blocked = ko.blocked_terms(params, x, theta, ang, problem)
    loose = ko.sample_terms(params, x, theta, ang, problem)
    np.testing.assert_allclose(blocked["residual"], loose["residual"], atol=1e-12)


def test_whole_walk_of_a_tensor_set_is_blocked_terms_on_its_rows():
    quad = ps.build_quadrature(n_spatial=3, n_angular=8, n_boundary=(3, 3))
    params = net.init_params((4, 10, 1), seed=2)
    problem = _zero_problem(sigma_a=0.7, sigma_t=1.3, kernel=ko.forward_peaked_kernel(0.5))
    walk = ko.interior_rows(quad, problem)
    got = walk.whole(params)
    rows = quad.interior
    want = ko.blocked_terms(params, rows.x, rows.theta, quad.angular, problem, quad.boundary)
    assert walk.kernel_rows.shape == (8, 8)
    for key in ("u", "du", "residual", "u_boundary"):
        assert np.array_equal(got[key], want[key])


def test_whole_set_residual_is_walked_in_tile_sized_passes(peak_bytes):
    # mc-manufactured's full set: 4,096 samples with 12 slice rows each and
    # 1,024 boundary nodes, 54,272 network rows in one pass, walked in tiles
    overrides = {"quadrature.scheme": "monte-carlo", "quadrature.n_interior": 4096}
    cfg = presets.expand_preset("manufactured", {**overrides, "quadrature.n_boundary": 1024})
    (problem, reference), quad = cf.build_problem(cfg), cf.build_quadrature_set(cfg)
    params, rows = cf.build_network(cfg), ko.interior_rows(quad, problem)
    assert len(quad.interior) == 4096 and len(quad.angular) == 12
    net.release_workspace()
    assert peak_bytes(lambda: rows.whole(params)) < 4e6
    net.release_workspace()
    assert peak_bytes(lambda: dio.discrete_norms(params, quad, problem, reference)) < 4e6


def test_each_boundary_node_set_gets_its_own_rows():
    # two Monte Carlo sets of one size: the second gets its own rows, and an
    # entry filed under its id for another node set is not returned
    problem = _zero_problem(sigma_a=0.7, sigma_t=1.3)
    one, two = (
        ps.build_quadrature(scheme=ps.MONTE_CARLO, n_spatial=16, n_boundary=32, seed=s) for s in (1, 2)
    )
    rows_one = problem.boundary_rows(one.boundary)
    rows_two = problem.boundary_rows(two.boundary)
    assert np.array_equal(rows_two, net.embed(two.boundary.x, two.boundary.theta))
    assert not np.array_equal(rows_one, rows_two)
    assert problem.boundary_rows(one.boundary) is rows_one
    problem._rows[id(two.boundary)] = (one.boundary, rows_one)
    assert np.array_equal(problem.boundary_rows(two.boundary), rows_two)
    params = net.init_params((4, 10, 1), seed=2)
    fresh = _zero_problem(sigma_a=0.7, sigma_t=1.3)
    for quad in (one, two):
        got, want = (ko.interior_rows(quad, p).whole(params) for p in (problem, fresh))
        assert np.array_equal(got["u_boundary"], want["u_boundary"])


# -- data fields ----------------------------------------------------------------


def test_data_field_kinds_at_chosen_points():
    ball = ko.CoefficientField("ball", (0.5, 0.5, 0.25, 50.0, 1.0))
    # r = radius (0.25 squared is exact) counts as inside
    assert list(ball(np.array([[0.5, 0.5], [0.75, 0.5], [0.5, 0.25], [0.76, 0.5]]))) == [50, 50, 50, 1]
    split = ko.CoefficientField("split-plane", (0.5, 0.1, 5.0))
    assert list(split(np.array([[0.49, 0.1], [0.5, 0.1], [0.9, 0.1]]))) == [0.1, 5.0, 5.0]
    left = ko.CoefficientField("left-edge", (0.0, 2.0))
    x = np.array([[1e-9, 0.3], [2e-9, 0.3], [0.0, 0.9], [-1e-9, 0.5], [-2e-9, 0.5]])
    assert list(left(x, np.zeros(5))) == [2.0, 0.0, 2.0, 2.0, 0.0]
    window = ko.CoefficientField("edge-window", (0.0, np.pi / 16, 3.0))
    x = np.array([[0.0, 0.5]] * 5 + [[1e-9, 0.2], [0.5, 0.5], [1.0, 0.5]])
    theta = np.array([np.pi / 16, TWO_PI - np.pi / 16, TWO_PI - 0.1, np.pi / 8, 0.0, 0.0, 0.0, 0.0])
    # 2 pi - pi/16 wraps to 4.7e-16 beyond -pi/16, inside by the 1e-12 slack
    assert list(window(x, theta)) == [3.0, 3.0, 3.0, 0.0, 3.0, 3.0, 0.0, 0.0]
    constant = ko.CoefficientField("constant", (-0.5,))
    assert list(constant(np.array([[0.1, 0.2], [0.9, 0.9]]), np.zeros(2))) == [-0.5, -0.5]
    values = [f.values for f in (ball, split, left, window, constant)]
    assert values == [(50.0, 1.0), (0.1, 5.0), (2.0,), (3.0,), (-0.5,)]
    with pytest.raises(ContractViolation, match="unknown field kind"):
        ko.CoefficientField("ball-obstacle", (0.5, 0.5, 0.15, 50.0, 1.0))


def _problem_with(sigma_a=None, sigma_t=0.0):
    sigma_a = sigma_a or ko.CoefficientField("constant", (1.0,))
    return ko.ProblemSpec(sigma_a, sigma_t, ko.isotropic_kernel(), ko.SourceAndInflow())


@pytest.mark.parametrize(
    "build",
    [
        lambda: lg.LagrangianConfig(gamma=np.nan),
        lambda: lg.LagrangianConfig(gamma=np.inf),
        lambda: lg.LagrangianConfig(gamma=-1.0),
        lambda: ko.ScatteringKernel("forward-peaked", np.nan),
        lambda: _problem_with(sigma_t=np.nan),
        lambda: _problem_with(sigma_t=np.inf),
        lambda: _problem_with(sigma_t=-1.0),
        lambda: _problem_with(ko.CoefficientField("constant", (-1.0,))),
        lambda: _problem_with(ko.CoefficientField("constant", (np.nan,))),
        lambda: _problem_with(ko.CoefficientField("constant", (np.inf,))),
        lambda: _problem_with(ko.CoefficientField("ball", (0.5, 0.5, 0.15, np.nan, 1.0))),
        lambda: _problem_with(ko.CoefficientField("split-plane", (0.5, 0.1, -5.0))),
        # the edge kinds are inflow data: the absorption is never given an angle
        lambda: _problem_with(ko.CoefficientField("left-edge", (0.0, 1.0))),
        lambda: _problem_with(ko.CoefficientField("edge-window", (0.0, 0.2, 1.0))),
        lambda: ko.NoiseSpec(np.nan, 1),
        lambda: ko.NoiseSpec(np.inf, 1),
        lambda: ko.NoiseSpec(-0.1, 1),
        lambda: ko.CoefficientField("constant", ()),
        lambda: ko.CoefficientField("constant", (1.0, 2.0)),
        lambda: ko.CoefficientField("ball", (0.5, 0.5)),
        lambda: ko.CoefficientField("ball", (0.5, 0.5, 0.15, 50.0)),
        lambda: ko.CoefficientField("split-plane", (0.5, 0.1)),
        lambda: ko.CoefficientField("left-edge", (0.0,)),
        lambda: ko.CoefficientField("edge-window", (0.0, 0.2)),
        lambda: ko.CoefficientField("edge-window", (0.0, 0.2, 3.0, 1.0)),
    ],
    ids=[
        "gamma-nan", "gamma-inf", "gamma-negative", "epsilon-nan", "sigma_t-nan", "sigma_t-inf",
        "sigma_t-negative", "sigma_a-negative", "sigma_a-nan", "sigma_a-inf", "ball-inside-nan",
        "split-right-negative", "sigma_a-left-edge", "sigma_a-edge-window", "noise-std-nan",
        "noise-std-inf", "noise-std-negative",
        "constant-no-params", "constant-two-params", "ball-two-params", "ball-four-params",
        "split-two-params", "left-edge-one-param", "window-two-params", "window-four-params",
    ],
)
def test_constructors_refuse_constants_out_of_range(build):
    with pytest.raises(ContractViolation):
        build()


def test_source_and_inflow_may_be_negative():
    # only the absorption has a sign; a geometry parameter has none either
    f, g = ko.CoefficientField("constant", (-1.0,)), ko.CoefficientField("left-edge", (0.0, -2.0))
    data = ko.SourceAndInflow(f, g)
    sigma_a = ko.CoefficientField("split-plane", (-0.5, 0.1, 5.0))
    problem = ko.ProblemSpec(sigma_a, 0.0, ko.isotropic_kernel(), data)
    nodes = ps.tensor_boundary(ps.UNIT_SQUARE, 4, 4)
    assert set(problem.data.inflow(nodes)) == {0.0, -2.0}
    assert list(problem.data.source(np.array([[0.3, 0.3]]), [0.0])) == [-1.0]


def test_build_problem_gives_each_data_field_its_kind_and_params():
    def fields(name):
        problem, _ = cf.build_problem(presets.expand_preset(name))
        return problem.sigma_a, problem.data.f, problem.data.g, problem.data.noise

    def field(kind, *params):
        return ko.CoefficientField(kind, params)

    one = field("constant", 1.0)
    assert fields("example1") == (one, field("ball", 0.5, 0.5, 1.0, 1.0, 0.0), None, None)
    window = field("edge-window", 0.0, np.pi / 16, 1.0)
    assert fields("example2") == (field("ball", 0.5, 0.5, 0.15, 50.0, 1.0), None, window, None)
    assert fields("example3-forward") == (field("constant", 0.1), None, one, None)
    assert fields("example4") == (one, None, field("left-edge", 0.0, 1.0), ko.NoiseSpec(0.05, 777))
    assert fields("example5") == (field("split-plane", 0.5, 0.1, 5.0), None, one, None)
    for name in presets.PRESETS:
        if name not in ("manufactured", "oracle-verify"):
            kinds = {type(f) for f in fields(name)[:3]}
            assert kinds <= {ko.CoefficientField, type(None)}
            assert all(type(p) is float for f in fields(name)[:3] if f for p in f.params)


def _closures_replaced(cfg, domain=ps.UNIT_SQUARE):
    """sigma_a, f and g written out as one plain closure per config kind:
    the reference the built CoefficientFields must equal bit for bit."""
    kind = cfg["problem.sigma_a.kind"]
    if kind == "constant":
        level = cfg["problem.sigma_a.value"]
        sigma_a = lambda x: np.full(np.atleast_2d(x).shape[0], level)  # noqa: E731
    elif kind == "ball-obstacle":
        center, radius = cfg["problem.sigma_a.center"], cfg["problem.sigma_a.radius"]
        inside, outside = cfg["problem.sigma_a.inside"], cfg["problem.sigma_a.outside"]

        def sigma_a(x):
            r2 = (x[:, 0] - center[0]) ** 2 + (x[:, 1] - center[1]) ** 2
            return np.where(r2 <= radius * radius, inside, outside)

    else:
        threshold, left, right = (cfg[f"problem.sigma_a.{k}"] for k in ("threshold", "left", "right"))
        sigma_a = lambda x: np.where(x[:, 0] < threshold, left, right)  # noqa: E731
    f = g = None
    kind, value = cfg["problem.source.kind"], cfg["problem.source.value"]
    if kind == "constant":
        f = lambda x, theta: np.full(np.atleast_2d(x).shape[0], value)  # noqa: E731
    elif kind == "ball":
        center, radius = np.asarray(cfg["problem.source.center"]), cfg["problem.source.radius"]

        def f(x, theta):
            r2 = (x[:, 0] - center[0]) ** 2 + (x[:, 1] - center[1]) ** 2
            return np.where(r2 <= radius * radius, value, 0.0)

    kind, value, lo0 = cfg["problem.inflow.kind"], cfg["problem.inflow.value"], domain.lo[0]
    if kind == "constant":
        g = lambda x, theta: np.full(np.atleast_2d(x).shape[0], value)  # noqa: E731
    elif kind == "left-edge":
        g = lambda x, theta: np.where(np.abs(x[:, 0] - lo0) <= 1e-9, value, 0.0)  # noqa: E731
    elif kind == "edge-window":
        half_width = cfg["problem.inflow.half_width"]

        def g(x, theta):
            on_edge = np.abs(x[:, 0] - lo0) <= 1e-9
            in_window = np.abs(np.angle(np.exp(1j * theta))) <= half_width + 1e-12
            return np.where(on_edge & in_window, value, 0.0)

    return sigma_a, f, g


@pytest.mark.parametrize("scheme", [ps.TENSOR_GAUSS, ps.MONTE_CARLO])
@pytest.mark.parametrize("name", [name for name in presets.PRESETS if name != "oracle-verify"])
def test_data_fields_equal_the_closures_they_replace(name, scheme):
    # examples 1, 4 and 5 run kinds that no benchmark workload runs
    cfg = presets.expand_preset(name, {"quadrature.scheme": scheme})
    (problem, _), quad = cf.build_problem(cfg), cf.build_quadrature_set(cfg)
    sigma_a, f, g = _closures_replaced(cfg)
    if cfg["problem.manufactured"]:
        f = problem.data.f  # a manufactured problem brings its own source closure
    for nodes in (quad.interior, quad.boundary):
        assert np.array_equal(problem.sigma_a(nodes.x), sigma_a(nodes.x))
        for new, old in ((problem.data.f, f), (problem.data.g, g)):
            assert (new is None) == (old is None)
            if new is not None:
                assert isinstance(new, ko.CoefficientField) or cfg["problem.manufactured"]
                got, want = new(nodes.x, nodes.theta), old(nodes.x, nodes.theta)
                assert got.dtype == want.dtype and np.array_equal(got, want)


def test_inflow_noise_frozen_and_support_masked():
    nodes = ps.tensor_boundary(ps.UNIT_SQUARE, 4, 4)

    data = ko.SourceAndInflow(None, ko.CoefficientField("left-edge", (0.0, 1.0)), ko.NoiseSpec(0.05, 123))
    a = data.inflow(nodes)
    b = data.inflow(nodes)
    assert np.array_equal(a, b)  # frozen realization
    on_left = np.abs(nodes.x[:, 0]) <= 1e-9
    assert np.all(a[~on_left] == 0.0)
    assert np.any(a[on_left] != 1.0)
    assert np.abs(a[on_left] - 1.0).max() <= 0.05 * 5

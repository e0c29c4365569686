"""Exact linear-basis iteration: saddle point, identities, decay bounds."""

import tracemalloc

import numpy as np
import pytest

from uzawa_transport import linear_oracle as lo
from uzawa_transport import phase_space as ps
from uzawa_transport import uzawa
from uzawa_transport.errors import ContractViolation, IllConditionedSystem


@pytest.fixture(scope="module")
def space():
    return lo.LinearTrialSpace(sigma_a=1.0, sigma_t=0.1)


@pytest.fixture(scope="module")
def datum(space):
    return lo.default_trace_datum(space)


def _dense_basis(x, theta):
    """The 18 basis functions at phase points, one row per point: column
    a * 6 + p is angular factor a (1, cos, sin) times polynomial p (1, x1,
    x2, x1 x2, x1^2, x2^2).  The reference for the factored maps and Grams."""
    x1, x2 = x.T
    poly = np.column_stack([np.ones_like(x1), x1, x2, x1 * x2, x1**2, x2**2])
    ang = np.column_stack([np.ones_like(theta), np.cos(theta), np.sin(theta)])
    return (ang[:, :, None] * poly[:, None, :]).reshape(-1, 18)


@pytest.fixture(scope="module")
def dense_trace(space):
    # the 4,096 x 18 table of the basis at the inflow nodes
    return _dense_basis(space.inflow.x, space.inflow.theta)


def test_gram_matrices_spd(space):
    for mat in (space.pde_gram, space.boundary_mass, space.mass):
        np.testing.assert_allclose(mat, mat.T, atol=1e-12)
        assert np.linalg.eigvalsh(mat).min() >= -1e-10
    for gamma in (0.5, 1.0, 2.0):
        assert np.linalg.eigvalsh(space.pde_gram + gamma * space.boundary_mass).min() > 0


def test_blocked_grams_match_one_pass(space):
    # the factored Grams against one pass over the 65,536 rows of the rule
    rule = ps.tensor_interior(ps.UNIT_SQUARE, 32, 32, ps.angular_rule(64))
    phi = _dense_basis(rule.x, rule.theta)
    (x1, x2), c, s = rule.x.T, np.cos(rule.theta), np.sin(rule.theta)
    # omega . grad of 1, x1, x2, x1 x2, x1^2, x2^2, times each angular factor
    grad_poly = np.column_stack([0 * c, c, s, c * x2 + s * x1, 2 * c * x1, 2 * s * x2])
    ang = np.column_stack([np.ones_like(c), c, s])
    adv = (ang[:, :, None] * grad_poly[:, None, :]).reshape(-1, 18)
    # isotropic scattering maps the angular factor 1 to 0 and cos, sin to themselves
    ts = adv + phi * (1.0 + 0.1 * np.repeat([0.0, 1.0, 1.0], lo._N_POLY))
    for got, rows in ((space.pde_gram, ts), (space.mass, phi), (space.advection_gram, adv)):
        want = rows.T @ (rule.weight[:, None] * rows)
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


def test_factored_boundary_maps_match_the_dense_trace(space, dense_trace):
    # the per-edge factors against the basis table of the inflow rule's 4,096 nodes
    nodes, dense = space.inflow, dense_trace
    rng = np.random.default_rng(11)
    c = rng.standard_normal(space.n_basis)
    lam, g = rng.standard_normal((2, len(nodes)))
    want = dense @ c
    assert np.abs(space.boundary_values(c) - want).max() <= 1e-14 * np.abs(want).max()
    for gamma in (0.0, 1.3):
        want = dense.T @ (nodes.weight * (gamma * g + lam))
        assert np.abs(space.rhs(lam, gamma, g) - want).max() <= 1e-14 * np.abs(want).max()


def test_outflow_mass_is_the_dense_outflow_gram(space):
    outflow = ps.tensor_boundary(ps.UNIT_SQUARE, 32, 32, side=ps.OUTFLOW)
    phi = _dense_basis(outflow.x, outflow.theta)
    want = phi.T @ (outflow.weight[:, None] * phi)
    assert np.abs(space.outflow_mass - want).max() <= 1e-14 * np.abs(want).max()


def test_boundary_mass_is_the_dense_inflow_gram(space, dense_trace):
    # built column by column from the factored maps
    want = dense_trace.T @ (space.inflow.weight[:, None] * dense_trace)
    assert np.abs(space.boundary_mass - want).max() <= 1e-14 * np.abs(want).max()


def test_n_basis_is_not_a_constructor_argument():
    # the Grams are 18 x 18 whatever was passed, so another count only broke later
    with pytest.raises(TypeError):
        lo.LinearTrialSpace(sigma_a=1.0, sigma_t=0.1, n_basis=5)


def test_trial_space_memory_stays_block_sized():
    # one 65,536 x 18 basis table of the whole rule would be 9.4 MB by itself;
    # a 4,096 x 18 table of the inflow nodes and its least-squares fit took the
    # peak to 1.8 MB
    tracemalloc.start()
    try:
        lo.LinearTrialSpace(sigma_a=1.0, sigma_t=0.1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1.5e6


def test_exact_inner_solve_zero_case(space):
    c = lo.QuadraticObjective.from_space(space, np.zeros(len(space.inflow)), 1.0).minimizer
    assert np.abs(c).max() <= 1e-14


def test_exact_inner_solve_first_order_optimality(space):
    rng = np.random.default_rng(3)
    lam = rng.normal(size=len(space.inflow))
    gamma = 1.3
    obj = lo.QuadraticObjective.from_space(space, lam, gamma)
    c = obj.minimizer
    assert np.linalg.norm(obj.grad(c)) <= 1e-10 * max(1.0, np.linalg.norm(obj.linear))


def test_one_basis_closed_form():
    # phi_0 = 1: (T + S) phi_0 = sigma_a, its trace is 1 on every inflow node,
    # and the inflow measure of the unit square is 4 edges x 2 = 8
    rng = np.random.default_rng(0)
    gamma = 0.7
    for sigma_a, sigma_t in ((1.0, 0.0), (2.0, 0.3)):
        space = lo.LinearTrialSpace(sigma_a=sigma_a, sigma_t=sigma_t)
        w = space.inflow.weight
        lam, g = rng.normal(size=len(w)), rng.normal(size=len(w))
        objective = lo.QuadraticObjective.from_space(space, lam, gamma, g)
        h00 = 2.0 * np.pi * sigma_a**2 + gamma * 8.0
        r0 = w @ (gamma * g + lam)
        assert objective.hessian[0, 0] == pytest.approx(h00, rel=1e-12)
        assert objective.linear[0] == pytest.approx(r0, rel=1e-12)
        one = lo.QuadraticObjective(objective.hessian[:1, :1], objective.linear[:1])
        assert one.minimizer[0] == pytest.approx(r0 / h00, rel=1e-12)


def test_fixed_point_trace_fit_and_gamma_independence(space, datum, dense_trace):
    c_g, g_values = datum
    # one solve serves every gamma
    c_star, lambda_star, mismatch = lo.fixed_point_solve(space, g_values)
    assert mismatch <= 1e-10
    for gamma in (0.5, 1.0, 2.0):
        # optimality identity: (A + gamma B) c* = Phi' W (gamma g + lambda*)
        lhs = (space.pde_gram + gamma * space.boundary_mass) @ c_star
        rhs = dense_trace.T @ (space.inflow.weight * (gamma * g_values + lambda_star))
        np.testing.assert_allclose(lhs, rhs, atol=1e-10)


def test_fixed_point_recovers_exact_coefficients(space, datum):
    c_g, g_values = datum
    c_star, _, _ = lo.fixed_point_solve(space, g_values)
    np.testing.assert_allclose(c_star, c_g, atol=1e-10)


def test_fixed_point_fit_is_the_weighted_least_squares_fit(space, datum, dense_trace):
    # the normal-equation solve against lstsq on the weighted table, for a
    # datum in the trace image and one outside it
    sqw = np.sqrt(space.inflow.weight)
    outside = np.random.default_rng(5).standard_normal(len(space.inflow))
    for g_values in (datum[1], outside):
        want, *_ = np.linalg.lstsq(sqw[:, None] * dense_trace, sqw * g_values, rcond=None)
        c_star, _, _ = lo.fixed_point_solve(space, g_values)
        assert np.abs(c_star - want).max() <= 1e-12 * np.abs(want).max()


def test_residual_identity_along_run(space, datum):
    _, g_values = datum
    run = lo.run_uzawa_oracle(space, gamma=1.0, rho=0.5, n_iter=200, g_values=g_values)
    assert lo.residual_identity_gap(space, run, gamma=1.0) <= 1e-10


def test_distance_recursion_along_run(space, datum):
    _, g_values = datum
    run = lo.run_uzawa_oracle(space, gamma=1.0, rho=0.5, n_iter=200, g_values=g_values)
    assert lo.recursion_identity_gap(space, run, rho=0.5) <= 1e-10


@pytest.mark.parametrize("gamma,rho", [(1.0, 0.5), (1.0, 1.5), (2.0, 3.5)])
def test_monotone_distance_below_two_gamma(space, datum, gamma, rho):
    _, g_values = datum
    run = lo.run_uzawa_oracle(space, gamma, rho, 200, g_values=g_values)
    assert np.all(np.diff(run.dist_lambda) <= 1e-12)
    # and the distance actually decreases overall
    assert run.dist_lambda[-1] < run.dist_lambda[0]


def test_telescoping_bound(space, datum):
    _, g_values = datum
    gamma, rho = 1.0, 0.5
    run = lo.run_uzawa_oracle(space, gamma, rho, 200, g_values=g_values)
    gap, total, bound = lo.telescoping_check(space, run, gamma, rho)
    assert gap <= 1e-8
    assert total <= bound + 1e-8


def test_large_rho_escapes_monotonicity(space, datum):
    # sharpness of rho < 2 gamma: some rho >= 2 gamma shows an increase
    _, g_values = datum
    gamma = 0.5
    escaped = False
    for rho in (2.0 * gamma + 0.5, 10.0 * gamma, 50.0 * gamma):
        run = lo.run_uzawa_oracle(space, gamma, rho, 50, g_values=g_values)
        if np.any(np.diff(run.dist_lambda) > 1e-12):
            escaped = True
            break
    assert escaped


def test_strong_regime_series(space, datum):
    sigma_a, sigma_t, gamma, rho = 1.0, 0.1, 2.0, 1.0
    assert uzawa.check_strong_regime(sigma_a, sigma_t, rho, gamma).valid
    _, g_values = datum
    run = lo.run_uzawa_oracle(space, gamma, rho, 200, g_values=g_values)
    c_const = lo.strong_regime_constant(sigma_a, sigma_t, gamma, rho)
    assert c_const > 0
    partial = c_const * np.cumsum(run.err_triple[:-1] ** 2)
    assert np.all(partial <= run.dist_lambda[0] ** 2 + 1e-8)
    assert np.all(np.diff(run.err_triple) <= 1e-12)


@pytest.mark.parametrize(
    "sigma_a, sigma_t, gamma, rho", [(1.0, 0.1, 2.0, 1.0), (2.0, 0.05, 1.5, 0.5), (0.5, 0.3, 3.0, 2.0)]
)
def test_strong_regime_constant_matches_a_loop(sigma_a, sigma_t, gamma, rho):
    best = -np.inf
    for a in np.linspace(1e-3, 1.0 - 1e-3, 999):
        entries = (
            2.0 * rho * a,
            2.0 * rho * sigma_a * a,
            rho * (2.0 * gamma - rho - 2.0 * sigma_a * a),
            2.0 * rho * (sigma_a**2 * a - 4.0 * sigma_t**2 / (1.0 - a)),
        )
        best = max(best, min(entries))
    assert lo.strong_regime_constant(sigma_a, sigma_t, gamma, rho) == best


def test_run_series_lengths(space, datum):
    _, g_values = datum
    run = lo.run_uzawa_oracle(space, 1.0, 0.5, 17, g_values=g_values)
    for series in (run.dist_lambda, run.err_pde, run.err_boundary, run.err_triple):
        assert len(series) == 18
    assert run.coefficients.shape == run.moments.shape == (18, space.n_basis)


def test_records_match_a_node_space_iteration(space, datum, dense_trace):
    # lambda_k iterated by hand on the inflow nodes, without the production step
    _, g_values = datum
    gamma, rho = 1.0, 0.5
    run = lo.run_uzawa_oracle(space, gamma, rho, 10, g_values=g_values)
    w, hessian = space.inflow.weight, space.pde_gram + gamma * space.boundary_mass
    lam = np.zeros(len(space.inflow))
    for k in range(11):
        dlam = lam - run.lambda_star
        moment = dense_trace.T @ (w * dlam)
        assert abs(run.dist_lambda[k] - np.sqrt(w @ dlam**2)) <= 1e-10 * run.dist_lambda[k]
        assert np.linalg.norm(run.moments[k] - moment) <= 1e-10 * np.linalg.norm(moment)
        c = np.linalg.solve(hessian, dense_trace.T @ (w * (gamma * g_values + lam)))
        lam = lam - rho * (dense_trace @ c - g_values)


def test_run_memory_is_its_records(space, datum):
    # keeping every 4,096-node multiplier of a 200-step run took 6.8 MB
    _, g_values = datum
    tracemalloc.start()
    try:
        lo.run_uzawa_oracle(space, 1.0, 0.5, 200, g_values=g_values)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2e6


def test_recursion_gap_certifies_the_production_step(space, datum, monkeypatch):
    _, g_values = datum
    # a step of rho * (1 + 1e-6) in the solver's update must break the identity
    step = uzawa.multiplier_update
    monkeypatch.setattr(uzawa, "multiplier_update", lambda m, r, rho: step(m, r, rho * (1 + 1e-6)))
    run = lo.run_uzawa_oracle(space, 1.0, 0.5, 50, g_values=g_values)
    assert lo.recursion_identity_gap(space, run, rho=0.5) > 1e-10


def test_singular_inner_system_refused():
    # without absorption and scattering the constants have zero advection
    space = lo.LinearTrialSpace(sigma_a=0.0, sigma_t=0.0)
    with pytest.raises(IllConditionedSystem):
        lo.run_uzawa_oracle(space, gamma=0.0, rho=1.0, n_iter=5)


def test_rho_contract(space):
    with pytest.raises(ContractViolation):
        lo.run_uzawa_oracle(space, 1.0, 0.0, 5)


def test_verification_suite_all_pass():
    checks = lo.verification_suite(n_iter=50)
    # the oracle benchmark gates on exactly this many passing checks
    assert len(checks) == 14
    assert all(ok for _, ok, _ in checks)
    # plain bools, which the verify manifest serialises as they are
    assert all(type(ok) is bool for _, ok, _ in checks)

"""Outer iteration, multiplier updates, optimizers, regime checker."""

import numpy as np
import pytest

from uzawa_transport import kinetic_ops as ko
from uzawa_transport import lagrangian as lg
from uzawa_transport import linear_oracle as lo
from uzawa_transport import network as net
from uzawa_transport import phase_space as ps
from uzawa_transport import uzawa
from uzawa_transport.errors import ContractViolation, NumericalAbort


def _tiny_setup(g=None, f=None, scheme=ps.TENSOR_GAUSS):
    if scheme == ps.MONTE_CARLO:
        quad = ps.build_quadrature(scheme=scheme, n_spatial=64, n_angular=6, n_boundary=64, seed=3)
    else:
        quad = ps.build_quadrature(scheme=scheme, n_spatial=4, n_angular=6, n_boundary=(3, 3))
    problem = ko.ProblemSpec(
        ko.constant_absorption(1.0), 0.0, ko.isotropic_kernel(), ko.SourceAndInflow(f, g)
    )
    params = net.init_params((4, 8, 1), seed=0)
    return quad, problem, params


def test_config_contracts():
    with pytest.raises(ContractViolation):
        uzawa.UzawaConfig(n_inner=0)
    with pytest.raises(ContractViolation):
        uzawa.UzawaConfig(n_outer=0)
    with pytest.raises(ContractViolation):
        uzawa.UzawaConfig(rho=-0.1)
    with pytest.raises(ContractViolation):
        uzawa.UzawaConfig(learning_rate=0.0)


@pytest.mark.parametrize(
    "field, value",
    [
        ("rho", float("nan")),
        ("rho", float("inf")),
        ("learning_rate", float("nan")),
        ("learning_rate", float("inf")),
    ],
)
def test_config_rejects_what_the_schema_rejects(field, value):
    with pytest.raises(ContractViolation):
        uzawa.UzawaConfig(**{field: value})


def test_multiplier_update_arithmetic():
    nodes = ps.tensor_boundary(ps.UNIT_SQUARE, 2, 2)

    # u = 0 everywhere, so the mismatch u - g is -g
    mult = lg.MultiplierField(np.ones(len(nodes)), nodes)
    g_vals = np.full(len(nodes), 0.2)  # u - g = -0.2
    updated = uzawa.multiplier_update(mult, -g_vals, rho=0.5)
    np.testing.assert_allclose(updated.values, 1.0 + 0.5 * 0.2)

    # fixed point: u = g
    fixed = uzawa.multiplier_update(mult, np.zeros(len(nodes)), rho=0.5)
    np.testing.assert_allclose(fixed.values, mult.values)

    # two updates with frozen u compose additively
    twice = uzawa.multiplier_update(updated, -g_vals, rho=0.5)
    np.testing.assert_allclose(twice.values, 1.0 + 2 * 0.5 * 0.2)
    assert twice.nodes is nodes


def test_multiplier_update_linear_in_mismatch():
    nodes = ps.tensor_boundary(ps.UNIT_SQUARE, 2, 2)
    params = net.init_params((4, 8, 1), seed=4)
    mult = lg.MultiplierField(np.zeros(len(nodes)), nodes)
    g1 = np.linspace(0.1, 0.4, len(nodes))
    u_b = net.eval_batch(params, nodes.x, nodes.theta)
    upd1 = uzawa.multiplier_update(mult, u_b - g1, rho=1.0)
    upd2 = uzawa.multiplier_update(mult, u_b - (u_b - 2.0 * (u_b - g1)), rho=1.0)
    np.testing.assert_allclose(upd2.values, 2.0 * upd1.values, atol=1e-14)


def test_run_records_zero_boundary_residual_for_zero_problem():
    quad, problem, params = _tiny_setup()
    zero = net.unflatten(np.zeros(params.n_params), params.widths)
    state = uzawa.RunState(zero, lg.MultiplierField(np.zeros(len(quad.boundary)), quad.boundary))
    b = quad.boundary
    mismatch = net.eval_batch(zero, b.x, b.theta) - problem.data.inflow(b)
    assert uzawa.boundary_residual(b, mismatch) == 0.0
    assert state.initial_boundary_residual != state.initial_boundary_residual  # nan until run


def test_run_deterministic_replay():
    quad, problem, params = _tiny_setup(g=lambda x, t: np.full(np.atleast_2d(x).shape[0], 0.3))
    cfg = uzawa.UzawaConfig(rho=0.5, n_outer=2, n_inner=15, learning_rate=1e-3)
    lcfg = lg.LagrangianConfig(gamma=1.0, batch_interior=8)
    s1 = uzawa.run(problem, quad, params, cfg, lcfg, seed=5)
    s2 = uzawa.run(problem, quad, params, cfg, lcfg, seed=5)
    assert net.flatten(s1.params).tobytes() == net.flatten(s2.params).tobytes()
    for a, b in zip(s1.inner_history[-1], s2.inner_history[-1]):
        assert a.value == b.value
    assert s1.outer_history[-1].boundary_residual == s2.outer_history[-1].boundary_residual


def test_run_monte_carlo_resampling_path():
    quad, problem, params = _tiny_setup(
        g=lambda x, t: np.full(np.atleast_2d(x).shape[0], 0.2), scheme=ps.MONTE_CARLO
    )
    cfg = uzawa.UzawaConfig(rho=0.5, n_outer=2, n_inner=10)
    lcfg = lg.LagrangianConfig(gamma=1.0, batch_interior=32, resample=True)
    s1 = uzawa.run(problem, quad, params, cfg, lcfg, seed=7)
    s2 = uzawa.run(problem, quad, params, cfg, lcfg, seed=7)
    assert net.flatten(s1.params).tobytes() == net.flatten(s2.params).tobytes()
    assert len(s1.outer_history) == 2
    assert len(s1.inner_history[0]) == 10


def test_monte_carlo_run_replays_bitwise_from_warm_caches():
    # back to back on one quadrature set and problem: the second run meets
    # the boundary rows the first one cached and a live kernel workspace
    quad, problem, params = _tiny_setup(
        g=lambda x, t: np.full(np.atleast_2d(x).shape[0], 0.2), scheme=ps.MONTE_CARLO
    )
    cfg = uzawa.UzawaConfig(rho=0.5, n_outer=2, n_inner=10)
    lcfg = lg.LagrangianConfig(gamma=1.0, batch_interior=24, resample=True)
    first = uzawa.run(problem, quad, params, cfg, lcfg, seed=11)
    cached, live = problem.boundary_rows(quad.boundary), list(net._SLOTS.values())
    assert live
    second = uzawa.run(problem, quad, params, cfg, lcfg, seed=11)
    assert problem.boundary_rows(quad.boundary) is cached

    def parts(p):
        return (p.pde, p.boundary_penalty, p.multiplier_term)

    assert net.flatten(first.params).tobytes() == net.flatten(second.params).tobytes()
    for a, b in zip(first.inner_history, second.inner_history, strict=True):
        assert [parts(p) for p in a] == [parts(p) for p in b]
    for a, b in zip(first.outer_history, second.outer_history, strict=True):
        assert parts(a.loss_parts) == parts(b.loss_parts)
        assert a.loss_parts.mismatch.tobytes() == b.loss_parts.mismatch.tobytes()
        assert (a.boundary_residual, a.lambda_norm) == (b.boundary_residual, b.lambda_norm)


def test_outer_pass_runs_without_the_training_workspace(monkeypatch):
    # the full-set pass builds its rows after the inner loop has released
    # its cached workspace (the one with d2 buffers), so the two never add up
    quad, problem, params = _tiny_setup(
        g=lambda x, t: np.full(np.atleast_2d(x).shape[0], 0.2), scheme=ps.MONTE_CARLO
    )
    cfg = uzawa.UzawaConfig(rho=0.5, n_outer=2, n_inner=3)
    lcfg = lg.LagrangianConfig(gamma=1.0, batch_interior=32, resample=True)
    assemble, live = lg.assemble, []

    def recording(*args, **kwargs):
        live.append(list(net._SLOTS.values()))
        return assemble(*args, **kwargs)

    monkeypatch.setattr(lg, "assemble", recording)
    uzawa.run(problem, quad, params, cfg, lcfg, seed=7)
    assert len(live) == 2
    assert all(ws.d2 is None for entered in live for ws in entered)


def test_warm_start_across_outer_steps():
    # parameters carry over; a second outer step starts from the first's end
    quad, problem, params = _tiny_setup(g=lambda x, t: np.full(np.atleast_2d(x).shape[0], 0.3))
    cfg1 = uzawa.UzawaConfig(rho=0.5, n_outer=1, n_inner=20)
    cfg2 = uzawa.UzawaConfig(rho=0.5, n_outer=2, n_inner=20)
    lcfg = lg.LagrangianConfig(gamma=1.0)
    one = uzawa.run(problem, quad, params, cfg1, lcfg, seed=3)
    two = uzawa.run(problem, quad, params, cfg2, lcfg, seed=3)
    # identical first outer step
    assert one.outer_history[0].boundary_residual == two.outer_history[0].boundary_residual
    # training continued (loss at start of outer 2 differs from fresh init)
    assert not np.array_equal(net.flatten(one.params), net.flatten(two.params))


def test_non_finite_abort_names_step_and_part():
    # a source of 1e200 squares past the float range in the first step's pde part
    quad, problem, params = _tiny_setup(f=lambda x, t: np.full(np.atleast_2d(x).shape[0], 1e200))
    cfg = uzawa.UzawaConfig(rho=0.5, n_outer=1, n_inner=5)
    lcfg = lg.LagrangianConfig(gamma=1.0)
    with pytest.raises(NumericalAbort, match="inner step"):
        uzawa.run(problem, quad, params, cfg, lcfg, seed=0)


def test_overflowing_optimizer_step_aborts():
    quad, problem, params = _tiny_setup(g=lambda x, t: np.full(np.atleast_2d(x).shape[0], 0.3))
    cfg = uzawa.UzawaConfig(rho=0.5, n_outer=1, n_inner=5, learning_rate=1e308)
    lcfg = lg.LagrangianConfig(gamma=1.0)
    with np.errstate(over="ignore"):
        with pytest.raises(NumericalAbort, match="parameters .* outer step 0, inner step 0"):
            uzawa.run(problem, quad, params, cfg, lcfg, seed=0)


def test_gd_suboptimality_bound_on_quadratic():
    # plain gradient descent with eta = 1/L on the oracle quadratic:
    # gap(T) <= ||theta0 - theta*||^2 / (2 eta T)
    space = lo.LinearTrialSpace(sigma_a=1.0, sigma_t=0.1)
    rng = np.random.default_rng(8)
    lam = rng.normal(size=len(space.inflow))
    objective = lo.QuadraticObjective.from_space(space, lam, gamma=1.0)
    eta = 1.0 / objective.lipschitz
    c_star = objective.minimizer
    f_star = objective.value(c_star)
    c0 = rng.normal(size=space.n_basis)
    gap0 = np.linalg.norm(c0 - c_star) ** 2
    c = c0.copy()
    for t in range(1, 1001):
        c = c - eta * objective.grad(c)
        if t in (10, 100, 1000):
            assert objective.value(c) - f_star <= gap0 / (2 * eta * t) + 1e-12


def test_adam_matches_reference_formula():
    opt = uzawa.Adam(lr=0.1)
    theta = np.array([1.0, -2.0])
    grad = np.array([0.5, 0.3])
    out = opt.step(theta, grad)
    m = 0.1 * grad
    v = 0.001 * grad**2
    expected = theta - 0.1 * (m / (1 - 0.9)) / (np.sqrt(v / (1 - 0.999)) + 1e-8)
    np.testing.assert_allclose(out, expected, rtol=1e-12)


def test_check_strong_regime():
    # boundary case: sigma_t = sigma_a / 4 exactly is invalid
    assert not uzawa.check_strong_regime(1.0, 0.25, 0.1, 2.0).valid
    # worked example: rho_max = 3 - sqrt(0.84)
    regime = uzawa.check_strong_regime(1.0, 0.1, 1.0, 2.0)
    assert regime.valid
    assert regime.rho_max == pytest.approx(3.0 - np.sqrt(0.84), abs=1e-12)
    assert regime.rho_max == pytest.approx(2.0834, abs=1e-4)
    # no absorption: invalid for any scattering
    assert not uzawa.check_strong_regime(0.0, 0.0, 0.5, 1.0).valid
    assert uzawa.check_strong_regime(1.0, 0.1, 5.0, 2.0).valid is False  # rho too big
    with pytest.raises(ContractViolation):
        uzawa.check_strong_regime(-1.0, 0.1, 0.5, 1.0)


def test_metrics_history_shapes():
    quad, problem, params = _tiny_setup(g=lambda x, t: np.full(np.atleast_2d(x).shape[0], 0.1))
    cfg = uzawa.UzawaConfig(rho=0.5, n_outer=3, n_inner=7)
    lcfg = lg.LagrangianConfig(gamma=1.0)
    before = params.flat.copy()
    state = uzawa.run(problem, quad, params, cfg, lcfg, seed=1)
    assert params.flat.tobytes() == before.tobytes()  # the run steps its own vectors
    assert len(state.outer_history) == 3
    assert [len(t) for t in state.inner_history] == [7, 7, 7]
    assert np.isfinite(state.initial_boundary_residual)
    assert state.multiplier.nodes is quad.boundary
    # the outer record reads the full-set pass; inner traces keep no node arrays
    b = quad.boundary
    u_b = net.eval_batch(state.params, b.x, b.theta)
    mismatch = u_b - problem.data.inflow(b)
    assert state.outer_history[-1].boundary_residual == pytest.approx(
        np.sqrt(b.weight @ mismatch**2), rel=1e-12
    )
    assert all(parts.mismatch is None for trace in state.inner_history for parts in trace)

"""Objective assembly, gradients, multiplier field, subsampling."""

import weakref

import numpy as np
import pytest

from uzawa_transport import config as cf
from uzawa_transport import kinetic_ops as ko
from uzawa_transport import lagrangian as lg
from uzawa_transport import network as net
from uzawa_transport import phase_space as ps
from uzawa_transport import presets
from uzawa_transport.errors import ContractViolation


def _quad(n_spatial=3, n_angular=8, n_boundary=(3, 3), scheme=ps.TENSOR_GAUSS, seed=0):
    if scheme == ps.MONTE_CARLO:
        return ps.build_quadrature(
            scheme=scheme, n_spatial=64, n_angular=n_angular, n_boundary=128, seed=seed
        )
    return ps.build_quadrature(
        scheme=scheme, n_spatial=n_spatial, n_angular=n_angular, n_boundary=n_boundary
    )


def _problem(sigma_a=1.0, sigma_t=0.0, kernel=None, f=None, g=None):
    return ko.ProblemSpec(
        ko.constant_absorption(sigma_a),
        sigma_t,
        kernel or ko.isotropic_kernel(),
        ko.SourceAndInflow(f, g),
    )


def _constant_multiplier(nodes, value):
    return lg.MultiplierField(np.full(len(nodes), value), nodes)


def _zero_net():
    params = net.init_params((4, 8, 1), seed=0)
    return net.unflatten(np.zeros(params.n_params), params.widths)


def test_all_zero_inputs_give_zero_value():
    quad = _quad()
    problem = _problem()
    mult = _constant_multiplier(quad.boundary, 0.0)
    parts = lg.assemble(_zero_net(), mult, quad, problem, lg.LagrangianConfig(gamma=1.0))
    assert parts.pde == 0.0
    assert parts.boundary_penalty == 0.0
    assert parts.multiplier_term == 0.0
    assert parts.value == 0.0


def test_boundary_penalty_equals_inflow_measure():
    # zero network, g = 1, gamma = 2: penalty = (2/2) * measure(inflow) = 8
    quad = _quad(n_boundary=(8, 8))
    problem = _problem(g=lambda x, t: np.ones(np.atleast_2d(x).shape[0]))
    mult = _constant_multiplier(quad.boundary, 0.0)
    parts = lg.assemble(_zero_net(), mult, quad, problem, lg.LagrangianConfig(gamma=2.0))
    assert parts.boundary_penalty == pytest.approx(8.0, abs=1e-12)


def test_multiplier_term_sign():
    quad = _quad(n_boundary=(8, 8))
    mult = _constant_multiplier(quad.boundary, 1.0)
    cfg = lg.LagrangianConfig(gamma=0.0)
    # g = 0: -sum w * 1 * (0 - 0) = 0
    parts = lg.assemble(_zero_net(), mult, quad, _problem(), cfg)
    assert parts.multiplier_term == 0.0
    # g = 1: -sum w * 1 * (0 - 1) = +8
    problem = _problem(g=lambda x, t: np.ones(np.atleast_2d(x).shape[0]))
    parts = lg.assemble(_zero_net(), mult, quad, problem, cfg)
    assert parts.multiplier_term == pytest.approx(8.0, abs=1e-12)


def test_parts_sum_to_value():
    quad = _quad()
    problem = _problem(
        sigma_a=0.5,
        sigma_t=1.0,
        f=lambda x, t: x[:, 0],
        g=lambda x, t: 0.3 + 0.1 * np.sin(t),
    )
    params = net.init_params((4, 8, 1), seed=3)
    rng = np.random.default_rng(0)
    mult = lg.MultiplierField(rng.normal(size=len(quad.boundary)), quad.boundary)
    parts = lg.assemble(params, mult, quad, problem, lg.LagrangianConfig(gamma=1.5))
    assert parts.value == pytest.approx(
        parts.pde + parts.boundary_penalty + parts.multiplier_term, abs=1e-12
    )


def _fd_gradient(params, mult, quad, problem, cfg, h=1e-5):
    flat = net.flatten(params)
    fd = np.zeros_like(flat)
    for i in range(flat.size):
        e = np.zeros_like(flat)
        e[i] = h
        up = lg.assemble(net.unflatten(flat + e, params.widths), mult, quad, problem, cfg).value
        dn = lg.assemble(net.unflatten(flat - e, params.widths), mult, quad, problem, cfg).value
        fd[i] = (up - dn) / (2 * h)
    return fd


def test_gradient_matches_finite_differences_every_term_active():
    # gamma > 0, lambda != 0, sigma_t > 0, forward-peaked kernel: every term
    # and cross-term of the objective is exercised
    quad = _quad(n_spatial=2, n_angular=8, n_boundary=(3, 3))
    problem = _problem(
        sigma_a=0.7,
        sigma_t=1.0,
        kernel=ko.forward_peaked_kernel(0.5),
        f=lambda x, t: x[:, 0] + 0.3 * np.cos(t),
        g=lambda x, t: 0.5 + 0.2 * np.sin(t),
    )
    params = net.init_params((4, 8, 1), seed=11)
    rng = np.random.default_rng(2)
    mult = lg.MultiplierField(rng.normal(0, 0.5, len(quad.boundary)), quad.boundary)
    cfg = lg.LagrangianConfig(gamma=1.0)
    grad = lg.assemble_with_gradient(params, mult, quad, problem, cfg)[1]
    fd = _fd_gradient(params, mult, quad, problem, cfg)
    rel = np.abs(fd - grad) / np.maximum(1.0, np.abs(grad))
    assert rel.max() <= 1e-5


def test_gradient_matches_finite_differences_monte_carlo_interior():
    quad = _quad(scheme=ps.MONTE_CARLO, n_angular=8, seed=4)
    problem = _problem(sigma_a=0.5, sigma_t=0.8, g=lambda x, t: 0.2 * np.ones(np.atleast_2d(x).shape[0]))
    params = net.init_params((4, 6, 1), seed=8)
    rng = np.random.default_rng(5)
    mult = lg.MultiplierField(rng.normal(0, 0.3, len(quad.boundary)), quad.boundary)
    cfg = lg.LagrangianConfig(gamma=0.7)
    grad = lg.assemble_with_gradient(params, mult, quad, problem, cfg)[1]
    fd = _fd_gradient(params, mult, quad, problem, cfg)
    rel = np.abs(fd - grad) / np.maximum(1.0, np.abs(grad))
    assert rel.max() <= 1e-5


def test_pure_residual_zero_network_zero_gradient():
    # gamma=0, lambda=0, f=0: zero network is the global minimum
    quad = _quad()
    problem = _problem()
    mult = _constant_multiplier(quad.boundary, 0.0)
    cfg = lg.LagrangianConfig(gamma=0.0)
    grad = lg.assemble_with_gradient(_zero_net(), mult, quad, problem, cfg)[1]
    assert np.abs(grad).max() == 0.0


def test_gradient_homogeneous_in_weights():
    quad = _quad()
    problem = _problem(sigma_a=0.5, g=lambda x, t: np.full(np.atleast_2d(x).shape[0], 0.4))
    params = net.init_params((4, 6, 1), seed=2)
    mult = _constant_multiplier(quad.boundary, 0.2)
    cfg = lg.LagrangianConfig(gamma=1.0)
    g1 = lg.assemble_with_gradient(params, mult, quad, problem, cfg)[1]

    import copy

    doubled = copy.deepcopy(quad)
    doubled.interior.weight = doubled.interior.weight * 2.0
    doubled.boundary.weight = doubled.boundary.weight * 2.0
    mult2 = lg.MultiplierField(mult.values, doubled.boundary)
    g2 = lg.assemble_with_gradient(params, mult2, doubled, problem, cfg)[1]
    np.testing.assert_allclose(g2, 2.0 * g1, rtol=1e-12)


def test_value_affine_in_multiplier():
    quad = _quad()
    problem = _problem(g=lambda x, t: np.full(np.atleast_2d(x).shape[0], 0.6))
    params = net.init_params((4, 8, 1), seed=1)
    cfg = lg.LagrangianConfig(gamma=1.0)
    rng = np.random.default_rng(9)
    lam_a = rng.normal(size=len(quad.boundary))
    lam_b = rng.normal(size=len(quad.boundary))
    value = lambda lam: lg.assemble(
        params, lg.MultiplierField(lam, quad.boundary), quad, problem, cfg
    ).value
    for t in (0.0, 0.3, 1.0):
        mixed = value((1 - t) * lam_a + t * lam_b)
        assert mixed == pytest.approx((1 - t) * value(lam_a) + t * value(lam_b), rel=1e-12)


def test_registry_mismatch_rejected():
    quad = _quad()
    other = ps.tensor_boundary(ps.UNIT_SQUARE, 4, 4)
    mult = _constant_multiplier(other, 0.0)
    with pytest.raises(ContractViolation):
        lg.assemble(_zero_net(), mult, quad, _problem(), lg.LagrangianConfig())


def test_source_enters_the_pde_part():
    quad = _quad()
    problem = _problem(f=lambda x, t: np.ones(np.atleast_2d(x).shape[0]))
    mult = _constant_multiplier(quad.boundary, 0.0)
    parts = lg.assemble(_zero_net(), mult, quad, problem, lg.LagrangianConfig())
    assert parts.pde == pytest.approx(0.5 * 2 * np.pi, abs=1e-10)  # 1/2 int 1 over W


# -- subsampling ----------------------------------------------------------------


def test_subsample_full_size_is_identity():
    quad = _quad(n_spatial=4)
    assert lg.subsample(quad, 16, step_seed=0) is quad
    assert lg.subsample(quad, None, step_seed=0) is quad


def test_subsample_deterministic_and_bounded():
    quad = _quad(n_spatial=4)
    a = lg.subsample(quad, 5, step_seed=42)
    b = lg.subsample(quad, 5, step_seed=42)
    assert np.array_equal(a.interior.x, b.interior.x)
    assert np.array_equal(a.interior.weight, b.interior.weight)
    with pytest.raises(ContractViolation):
        lg.subsample(quad, 17, step_seed=0)


def test_tensor_subsample_keeps_whole_angular_blocks_in_order():
    # the rows of a tensor batch are whole K-row blocks of the full interior,
    # in the full interior's order: x constant in each, theta the angular rule
    quad = _quad(n_spatial=4, n_angular=8)
    full, k = quad.interior, len(quad.angular)
    sub = lg.subsample(quad, 5, step_seed=7).interior
    assert len(sub) == 5 * k
    x = sub.x.reshape(5, k, 2)
    assert np.array_equal(x, np.broadcast_to(x[:, :1], x.shape))
    assert np.array_equal(sub.theta.reshape(5, k), np.tile(quad.angular.theta, (5, 1)))
    starts = np.array([np.flatnonzero((full.x == p).all(axis=1))[0] for p in x[:, 0]])
    assert np.all(starts % k == 0) and np.all(np.diff(starts) > 0)
    for block, start in enumerate(starts):
        mine, theirs = slice(block * k, (block + 1) * k), slice(start, start + k)
        assert np.array_equal(sub.x[mine], full.x[theirs])
        assert np.array_equal(sub.weight[mine], full.weight[theirs] * (16 / 5))


def test_subsample_preserves_measure_and_boundary():
    # constant-weight interiors keep the total measure exactly; Gauss
    # interiors keep it in expectation (the rescale is the unbiased
    # inverse-inclusion-probability factor)
    quad_mc = _quad(scheme=ps.MONTE_CARLO)
    sub_mc = lg.subsample(quad_mc, 13, step_seed=3)
    assert sub_mc.interior.weight.sum() == pytest.approx(
        quad_mc.interior.weight.sum(), rel=1e-12
    )
    quad = _quad(n_spatial=4)
    totals = np.array(
        [lg.subsample(quad, 7, step_seed=s).interior.weight.sum() for s in range(300)]
    )
    se = totals.std(ddof=1) / np.sqrt(totals.size)
    assert abs(totals.mean() - quad.interior.weight.sum()) <= 3.0 * se
    assert lg.subsample(quad, 7, step_seed=0).boundary is quad.boundary


def test_subsample_unbiased_pde_part():
    # expectation over step seeds of the subsampled pde part equals the full
    # part within 3 standard errors (200 seeds)
    quad = _quad(n_spatial=4, n_angular=8)
    problem = _problem(sigma_a=1.0, f=lambda x, t: x[:, 0])
    params = net.init_params((4, 8, 1), seed=6)
    mult = _constant_multiplier(quad.boundary, 0.0)
    cfg = lg.LagrangianConfig(gamma=0.0)
    full = lg.assemble(params, mult, quad, problem, cfg).pde
    draws = np.array(
        [
            lg.assemble(params, mult, lg.subsample(quad, 6, step_seed=s), problem, cfg).pde
            for s in range(200)
        ]
    )
    se = draws.std(ddof=1) / np.sqrt(draws.size)
    assert abs(draws.mean() - full) <= 3.0 * se


def test_multiplier_norm():
    nodes = ps.tensor_boundary(ps.UNIT_SQUARE, 8, 8)
    mult = _constant_multiplier(nodes, 2.0)
    # ||2||_{L2(inflow)} = 2 * sqrt(8)
    assert mult.norm() == pytest.approx(2.0 * np.sqrt(8.0), abs=1e-12)
    with pytest.raises(ContractViolation):
        lg.MultiplierField(np.zeros(3), nodes)


def _example3_forward():
    cfg = presets.expand_preset("example3-forward")
    problem, _ = cf.build_problem(cfg)
    quad = cf.build_quadrature_set(cfg)
    return problem, quad, cf.build_network(cfg), cf.build_lagrangian_config(cfg)


def test_training_step_allocates_no_layer_buffers(peak_bytes):
    # example3-forward batch: 48 blocks x 32 directions plus 256 boundary rows
    problem, quad, params, cfg = _example3_forward()
    batch = lg.subsample(quad, cfg.batch_interior, [0, 0, 0])
    mult = _constant_multiplier(quad.boundary, 0.5)
    peaks = [
        peak_bytes(lambda: lg.assemble_with_gradient(params, mult, batch, problem, cfg))
        for _ in range(5)
    ]
    assert max(peaks[1:]) < 2e6


def test_step_memory_does_not_grow_with_the_batch(peak_bytes):
    # the full 400-block interior (12,800 rows with tangents) is swept one
    # tile at a time, in the workspace a 48-block batch uses
    problem, quad, params, cfg = _example3_forward()
    mult = _constant_multiplier(quad.boundary, 0.5)
    net.release_workspace()
    assert peak_bytes(lambda: lg.assemble_with_gradient(params, mult, quad, problem, cfg)) < 8e6
    held = []
    for rule in (lg.subsample(quad, cfg.batch_interior, [0, 0, 0]), quad):
        net.release_workspace()
        lg.assemble_with_gradient(params, mult, rule, problem, cfg)
        held.append([ws.nbytes for ws in net._SLOTS.values()])
    assert len(held[0]) == 1 and held[0] == held[1]


_MC_MANUFACTURED = {
    "quadrature.scheme": "monte-carlo",
    "quadrature.n_interior": 4096,
    "quadrature.n_boundary": 1024,
    "lagrangian.batch_interior": 256,
    "problem.sigma_t": 1.0,
}


@pytest.mark.parametrize(
    "preset, overrides",
    [("example3-forward", None), ("example2", None), ("manufactured", _MC_MANUFACTURED)],
    ids=["example3-forward", "example2", "monte-carlo"],
)
def test_tiling_changes_only_the_gradient_rounding(monkeypatch, preset, overrides):
    # every residual row, and so the parts and the mismatch, are those of one
    # pass over the whole batch, bitwise, however it is tiled: 10**9 stacked
    # rows make one interior and one boundary tile, 500 make several with a
    # ragged last interior tile, and 17 a tile per block or sample (a tensor
    # block is over the budget)
    cfg = presets.expand_preset(preset, overrides)
    problem, _ = cf.build_problem(cfg)
    quad, params, lcfg = cf.build_quadrature_set(cfg), cf.build_network(cfg), cf.build_lagrangian_config(cfg)
    batch = lg.subsample(quad, lcfg.batch_interior, [0, 0, 0])
    mult = lg.MultiplierField(np.random.default_rng(3).normal(0, 0.5, len(quad.boundary)), quad.boundary)
    rows = ko.interior_rows(batch, problem)
    monkeypatch.setattr(net, "ROW_BLOCK", 10**9)  # the reference: one interior and one boundary pass
    whole = rows.whole(params)
    mismatch = whole["u_boundary"] - problem.data.inflow(batch.boundary)
    bw = batch.boundary.weight
    want = (
        0.5 * float(batch.interior.weight @ whole["residual"] ** 2),
        0.5 * lcfg.gamma * float(bw @ mismatch**2),
        -float((bw * mult.values) @ mismatch),
    )
    seen, terms_of = [], ko.PhaseRows.terms
    monkeypatch.setattr(ko.PhaseRows, "terms", lambda *args: seen.append(terms_of(*args)) or seen[-1])
    tiles, grads = {}, []
    for budget in (10**9, 500, 17):
        monkeypatch.setattr(net, "ROW_BLOCK", budget)
        tiles[budget] = [p.stop - p.start for p, _ in rows.tiles() if p.stop > p.start]
        value = lg.assemble(params, mult, batch, problem, lcfg)
        parts, grad = lg.assemble_with_gradient(params, mult, batch, problem, lcfg)
        residuals, seen[:] = np.concatenate([terms["residual"] for terms in seen]), []
        assert np.array_equal(residuals, np.tile(whole["residual"], 2))
        for p in (value, parts):
            assert (p.pde, p.boundary_penalty, p.multiplier_term) == want
        assert np.array_equal(value.mismatch, mismatch)
        grads.append(grad)
    assert tiles[10**9] == [len(batch.interior)] and len(tiles[500]) > 2 and len(set(tiles[500])) == 2
    for grad in grads[1:]:
        assert np.linalg.norm(grad - grads[0]) <= 1e-13 * np.linalg.norm(grads[0])


def test_no_sweep_after_a_non_finite_tile(monkeypatch):
    # the source overflows on the spatial blocks at x1 = 0.38, which fall in
    # the third and fourth of the tiles of five 8-row blocks and their 8
    # tangent rows each; the first two are swept, no later one
    quad = _quad(n_spatial=6, n_angular=8, n_boundary=(3, 3))
    band = lambda x: (x[:, 0] > 0.3) & (x[:, 0] < 0.5)  # noqa: E731
    problem = _problem(sigma_t=1.0, f=lambda x, t: np.where(band(x), 1e300, 1.0) * 1e10)
    params = net.init_params((4, 8, 1), seed=3)
    mult = _constant_multiplier(quad.boundary, 0.5)
    cfg = lg.LagrangianConfig(gamma=1.0)
    monkeypatch.setattr(net, "ROW_BLOCK", 80)
    sweeps, sweep = [], net.vjp_jvp_batch
    monkeypatch.setattr(net, "vjp_jvp_batch", lambda *args: sweeps.append(1) or sweep(*args))
    with np.errstate(over="ignore", invalid="ignore"):  # as in uzawa.inner_minimize
        parts, grad = lg.assemble_with_gradient(params, mult, quad, problem, cfg)
        value = lg.assemble(params, mult, quad, problem, cfg)
    tiles = [rows for rows, _ in _tiles(quad)]
    first = next(i for i, rows in enumerate(tiles) if band(quad.interior.x[rows]).any())
    assert grad is None
    assert first == 2 and len(sweeps) == first and len(tiles) > first + 2
    assert parts.pde == value.pde == np.inf
    assert np.isfinite([parts.boundary_penalty, parts.multiplier_term]).all()
    assert (parts.boundary_penalty, parts.multiplier_term) == (value.boundary_penalty, value.multiplier_term)


def _preset_batch(preset, overrides=None):
    cfg = presets.expand_preset(preset, overrides)
    quad, lcfg = cf.build_quadrature_set(cfg), cf.build_lagrangian_config(cfg)
    return quad, lg.subsample(quad, lcfg.batch_interior, [0, 0, 0])


def _tiles(quad):
    return ko.interior_rows(quad, _problem()).tiles()


def _stacked_rows(quad, points, nodes):
    """Network rows of one tile: value and tangent rows, Monte Carlo slices included."""
    per_point = 2 if quad.scheme == ps.TENSOR_GAUSS else len(quad.angular) + 2
    return per_point * (points.stop - points.start) + (nodes.stop - nodes.start)


@pytest.mark.parametrize("budget", [net.ROW_BLOCK, 100, 17])
def test_every_tile_fits_the_stacked_budget_or_is_one_unit(monkeypatch, budget):
    monkeypatch.setattr(net, "ROW_BLOCK", budget)
    for quad in (
        _preset_batch("example2")[1],
        _preset_batch("example3-forward")[1],
        _preset_batch("manufactured", _MC_MANUFACTURED)[1],
        _quad(scheme=ps.MONTE_CARLO),
    ):
        unit = len(quad.angular) if quad.scheme == ps.TENSOR_GAUSS else 1
        tiles = _tiles(quad)
        for points, nodes in tiles:
            one_unit = points.stop - points.start == unit and nodes.start == nodes.stop
            assert _stacked_rows(quad, points, nodes) <= budget or one_unit
        # the tiles cover every row and node once, in order
        for part, size in ((0, len(quad.interior)), (1, len(quad.boundary))):
            assert [t[part].start for t in tiles[1:]] == [t[part].stop for t in tiles[:-1]]
            assert tiles[0][part].start == 0 and tiles[-1][part].stop == size


def test_tensor_batches_keep_their_tiles():
    # a tensor tile is 32 blocks x 16 or 16 blocks x 32 value rows, as under
    # a budget of 512 value rows, now 1,024 rows with their tangents
    def tiles(starts, boundary):
        interior = [slice(lo, hi) for lo, hi in zip(starts, starts[1:])]
        return [(rows, slice(0, 0)) for rows in interior] + [(slice(starts[-1], starts[-1]), boundary)]

    assert _tiles(_preset_batch("example2")[1]) == tiles([0, 512, 1024], slice(0, 512))
    assert _tiles(_preset_batch("example3-forward")[1]) == tiles([0, 512, 1024, 1536], slice(0, 256))


def test_monte_carlo_batch_makes_four_interior_tiles_and_one_boundary_tile():
    # 256 samples with K = 12 slice rows and a tangent row each: 73 samples
    # (1,022 rows) per tile; the 1,024 boundary nodes make one tile
    quad, batch = _preset_batch("manufactured", _MC_MANUFACTURED)
    sizes = [(p.stop - p.start, n.stop - n.start) for p, n in _tiles(batch)]
    assert len(quad.angular) == 12 and len(batch.interior) == 256
    assert sizes == [(73, 0), (73, 0), (73, 0), (37, 0), (0, 1024)]


def test_full_set_assemble_makes_one_pass_per_tile(monkeypatch):
    # the value-only pass streams each tile through the network at once:
    # 4,096 samples at 73 per tile and 1,024 boundary nodes make 57 + 1 passes
    cfg = presets.expand_preset("manufactured", _MC_MANUFACTURED)
    problem, _ = cf.build_problem(cfg)
    quad, params, lcfg = cf.build_quadrature_set(cfg), cf.build_network(cfg), cf.build_lagrangian_config(cfg)
    mult = _constant_multiplier(quad.boundary, 0.5)
    passes, forward = [], net._forward
    monkeypatch.setattr(net, "_forward", lambda *args: passes.append(1) or forward(*args))
    lg.assemble(params, mult, quad, problem, lcfg)
    per_tile = net.ROW_BLOCK // (len(quad.angular) + 2)
    n, n_b = len(quad.interior), len(quad.boundary)
    assert len(passes) == -(-n // per_tile) - (-n_b // net.ROW_BLOCK) == 58


def test_rows_are_built_once_per_evaluation(monkeypatch):
    # one embedding of the interior rows however many tiles walk them; the
    # frozen boundary's rows come from the problem's cache after the first
    cfg = presets.expand_preset("manufactured", _MC_MANUFACTURED)
    problem, _ = cf.build_problem(cfg)
    quad, params, lcfg = cf.build_quadrature_set(cfg), cf.build_network(cfg), cf.build_lagrangian_config(cfg)
    batch = lg.subsample(quad, lcfg.batch_interior, [0, 0, 0])
    mult = _constant_multiplier(quad.boundary, 0.5)
    embedded, embed = [], net._embed
    monkeypatch.setattr(net, "_embed", lambda x, theta: embedded.append(len(theta)) or embed(x, theta))
    lg.assemble_with_gradient(params, mult, batch, problem, lcfg)
    assert embedded == [256, 1024]
    embedded.clear()
    lg.assemble_with_gradient(params, mult, batch, problem, lcfg)
    lg.assemble(params, mult, quad, problem, lcfg)
    assert embedded == [256, 4096]


def test_a_growing_pass_frees_the_last_tiles_workspace(monkeypatch):
    # the 1,024-node boundary tile outgrows the (949, 73) rows of the Monte
    # Carlo tiles; the workspace it replaces must be gone when its pass
    # writes the new one, or a step's peak memory holds both
    cfg = presets.expand_preset("manufactured", _MC_MANUFACTURED)
    problem, _ = cf.build_problem(cfg)
    quad, params, lcfg = cf.build_quadrature_set(cfg), cf.build_network(cfg), cf.build_lagrangian_config(cfg)
    batch = lg.subsample(quad, lcfg.batch_interior, [0, 0, 0])
    alive, live, init, forward = weakref.WeakSet(), [], net._Workspace.__init__, net._forward
    monkeypatch.setattr(net._Workspace, "__init__", lambda ws, *args: init(ws, *args) or alive.add(ws))
    monkeypatch.setattr(net, "_forward", lambda *args: live.append(len(alive)) or forward(*args))
    net.release_workspace()
    lg.assemble_with_gradient(params, _constant_multiplier(quad.boundary, 0.5), batch, problem, lcfg)
    assert live == [1] * 5 and len({id(ws) for ws in alive}) == 1


def test_full_set_value_pass_stays_block_sized(peak_bytes):
    # 400 blocks x 32 directions: 12,800 interior rows with tangents
    problem, quad, params, cfg = _example3_forward()
    mult = _constant_multiplier(quad.boundary, 0.5)
    assert peak_bytes(lambda: lg.assemble(params, mult, quad, problem, cfg)) < 40e6

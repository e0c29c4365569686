"""Flux, slices, discrete norms, and file round trips."""

import dataclasses
import os
from types import SimpleNamespace

import numpy as np
import pytest

from uzawa_transport import diagnostics_io as dio
from uzawa_transport import kinetic_ops as ko
from uzawa_transport import network as net
from uzawa_transport import phase_space as ps
from uzawa_transport.errors import ContractViolation

TWO_PI = 2.0 * np.pi


def _const_net(value):
    params = net.init_params((4, 8, 1), seed=0)
    flat = np.zeros(params.n_params)
    flat[-1] = value
    return net.unflatten(flat, params.widths)


def _problem(sigma_a=1.0, sigma_t=0.0, f=None, g=None):
    return ko.ProblemSpec(
        ko.CoefficientField("constant", (sigma_a,)),
        sigma_t,
        ko.isotropic_kernel(),
        ko.SourceAndInflow(f, g),
    )


def test_scalar_flux_of_constant():
    ang = ps.angular_rule(16)
    grid = dio.scalar_flux(_const_net(1.0), ang, nx=11, ny=11)
    np.testing.assert_allclose(grid.values, TWO_PI, atol=1e-12)


def test_scalar_flux_of_pure_cosine_vanishes():
    # output = cos(theta): final layer reads the embedding's cos component
    # first hidden unit passes cos(theta)/2 through tanh ~ identity is not
    # exact, so build the angular dependence linearly instead: use one
    # hidden unit with tiny input scale and invert the tanh contraction on
    # the output weight
    cosnet = net.init_params((4, 8, 1), seed=0)
    eps = 1e-6
    cosnet.flat[:] = 0.0
    cosnet.weights[0][0, 2] = eps  # cos component
    cosnet.weights[1][0, 0] = 1.0 / eps
    ang = ps.angular_rule(32)
    grid = dio.scalar_flux(cosnet, ang, nx=7, ny=7)
    np.testing.assert_allclose(grid.values, 0.0, atol=1e-10)


def test_scalar_flux_of_x1_field():
    eps = 1e-6
    x1net = net.init_params((4, 8, 1), seed=0)
    x1net.flat[:] = 0.0
    x1net.weights[0][0, 0] = eps
    x1net.weights[1][0, 0] = 1.0 / eps
    ang = ps.angular_rule(16)
    grid = dio.scalar_flux(x1net, ang, nx=5, ny=5)
    xs = np.linspace(0, 1, 5)
    expected = np.broadcast_to(TWO_PI * xs[:, None], (5, 5))
    np.testing.assert_allclose(grid.values, expected, atol=1e-9)


def test_scalar_flux_memory_stays_block_sized(peak_bytes):
    # cold: the block workspace is built inside and counted
    params = net.init_params((4, 64, 64, 64, 1), seed=0)
    ang = ps.angular_rule(32)
    grids = []
    net.release_workspace()
    peak = peak_bytes(lambda: grids.append(dio.scalar_flux(params, ang, nx=101, ny=101)))
    assert grids[0].values.shape == (101, 101)
    assert peak < 64e6


@pytest.mark.parametrize("activation", list(net.ACTIVATIONS))
@pytest.mark.parametrize("k", [7, 12, 32, 64, 150])
def test_scalar_flux_blocks_match_one_pass(k, activation):
    # 37 x 29 points: no K here makes the row count a multiple of ROW_BLOCK
    params = net.unflatten(net.init_params((4, 16, 16, 1), seed=4).flat, (4, 16, 16, 1), activation)
    ang = ps.angular_rule(k)
    grid = dio.scalar_flux(params, ang, nx=37, ny=29)
    pts = dio.grid_points(37, 29, ps.UNIT_SQUARE)
    assert (pts.shape[0] * k) % net.ROW_BLOCK
    u = net.eval_batch(params, net.embed(np.repeat(pts, k, axis=0), np.tile(ang.theta, pts.shape[0])))
    expected = (u.reshape(pts.shape[0], k) @ ang.weight).reshape(37, 29)
    assert np.array_equal(grid.values, expected)


def test_scalar_flux_streams_the_phase_grid(peak_bytes):
    # with the block workspace warm (36 points fill one 32-point pass), the
    # peak is the grid's points and per-point sums plus one block, not the
    # 101^2 x 32 phase points (26 MB embedded) nor their (points, K)
    # values (2.6 MB)
    params = net.init_params((4, 64, 64, 64, 1), seed=0)
    ang = ps.angular_rule(32)
    dio.scalar_flux(params, ang, nx=6, ny=6)
    assert peak_bytes(lambda: dio.scalar_flux(params, ang, nx=101, ny=101)) < 1e6


def test_scalar_flux_checks_angular_weights():
    ang = ps.angular_rule(8)
    bad = ps.AngularNodes(ang.theta, ang.weight * 0.5)
    with pytest.raises(ContractViolation):
        dio.scalar_flux(_const_net(1.0), bad)


def test_angular_slice_matches_eval_and_periodicity():
    params = net.init_params((4, 12, 1), seed=9)
    grid_a = dio.angular_slice(params, 0.7, nx=9, ny=9)
    grid_b = dio.angular_slice(params, 0.7 + TWO_PI, nx=9, ny=9)
    np.testing.assert_allclose(grid_a.values, grid_b.values, atol=1e-14)
    xs = np.linspace(0, 1, 9)
    rng = np.random.default_rng(1)
    for _ in range(10):
        i, j = rng.integers(0, 9, 2)
        direct = net.eval_batch(params, net.embed(np.array([[xs[i], xs[j]]]), [0.7]))[0]
        assert abs(grid_a.values[i, j] - direct) <= 1e-14


def test_angular_slice_of_angle_independent_network():
    params = _const_net(2.5)
    a = dio.angular_slice(params, 0.0, nx=5, ny=5)
    b = dio.angular_slice(params, 2.0, nx=5, ny=5)
    np.testing.assert_allclose(a.values, b.values, atol=0)


@pytest.mark.parametrize("axis", ["nx", "ny"])
@pytest.mark.parametrize("size", [2.5, float("nan"), True, 1, 0, -3, 3.0])
def test_grids_refuse_a_size_that_is_not_a_count_before_any_pass(monkeypatch, axis, size):
    passes = []
    monkeypatch.setattr(net, "eval_batch", lambda *args: passes.append(args))
    sizes = {"nx": 3, "ny": 3, axis: size}
    with pytest.raises(ContractViolation, match=f"grid {axis} must be an integer >= 2"):
        dio.scalar_flux(_const_net(1.0), ps.angular_rule(4), **sizes)
    with pytest.raises(ContractViolation, match=f"grid {axis} must be an integer >= 2"):
        dio.angular_slice(_const_net(1.0), 0.3, **sizes)
    assert passes == []


def test_grids_accept_numpy_integer_sizes():
    params, ang = net.init_params((4, 8, 1), seed=2), ps.angular_rule(4)
    a = dio.scalar_flux(params, ang, nx=np.int64(4), ny=np.int32(3))
    assert a.values.tobytes() == dio.scalar_flux(params, ang, nx=4, ny=3).values.tobytes()
    b = dio.angular_slice(params, 0.3, nx=np.int64(2), ny=np.int64(5))
    assert b.values.tobytes() == dio.angular_slice(params, 0.3, nx=2, ny=5).values.tobytes()


def test_norms_of_unit_constant():
    # u = 1, sigma_a = 1, sigma_t = 0, f = 0: ||(T+S)u||^2 = |W| = 2 pi
    quad = ps.build_quadrature(n_spatial=8, n_angular=8, n_boundary=(6, 6))
    norms = dio.discrete_norms(_const_net(1.0), quad, _problem())
    assert norms["pde_residual_norm"] ** 2 == pytest.approx(TWO_PI, abs=1e-10)
    assert norms["v_norm"] ** 2 == pytest.approx(
        norms["pde_residual_norm"] ** 2 + norms["boundary_residual_norm"] ** 2, abs=1e-12
    )
    # boundary residual vs g=0 is ||1||_{inflow} = sqrt(8)
    assert norms["boundary_residual_norm"] == pytest.approx(np.sqrt(8.0), abs=1e-10)


_RULES = {
    ps.TENSOR_GAUSS: dict(scheme=ps.TENSOR_GAUSS, n_spatial=6, n_angular=8, n_boundary=(4, 4)),
    ps.MONTE_CARLO: dict(scheme=ps.MONTE_CARLO, n_spatial=50, n_angular=8, n_boundary=40, seed=3),
}


@pytest.mark.parametrize("scheme", sorted(_RULES))
def test_norms_zero_in_reference_mode(scheme):
    quad = ps.build_quadrature(**_RULES[scheme])
    zero_ref = dio.ReferenceSolution(
        lambda x, t: np.zeros(np.atleast_2d(x).shape[0]),
        lambda x, t: np.zeros(np.atleast_2d(x).shape[0]),
    )
    norms = dio.discrete_norms(_const_net(0.0), quad, _problem(), reference=zero_ref)
    for key in ("l2_interior", "pde_residual_norm", "boundary_residual_norm", "v_norm"):
        assert norms[key] == 0.0


@pytest.mark.parametrize("scheme", sorted(_RULES))
def test_reference_mode_constant_difference(scheme):
    # u = c, reference c', sigma_t > 0: scattering annihilates the constant
    # difference, so ||(T+S)(u - ref)||^2 = sigma_a^2 (c - c')^2 |W| = ... * 2 pi
    c, c_ref, sigma_a = 1.5, 0.25, 0.7
    quad = ps.build_quadrature(**_RULES[scheme])
    ref = dio.ReferenceSolution(
        lambda x, t: np.full(np.atleast_2d(x).shape[0], c_ref),
        lambda x, t: np.zeros(np.atleast_2d(x).shape[0]),
    )
    norms = dio.discrete_norms(_const_net(c), quad, _problem(sigma_a, sigma_t=2.0), reference=ref)
    expected = sigma_a**2 * (c - c_ref) ** 2 * TWO_PI
    assert norms["pde_residual_norm"] ** 2 == pytest.approx(expected, rel=1e-12)


def test_norms_finite_for_random_networks():
    quad = ps.build_quadrature(n_spatial=5, n_angular=8, n_boundary=(3, 3))
    for seed in range(3):
        params = net.init_params((4, 16, 16, 1), seed=seed)
        norms = dio.discrete_norms(params, quad, _problem(sigma_t=0.5))
        assert np.isfinite(norms["v_norm"])


def test_flux_of_nonnegative_field_nonnegative():
    quad_ang = ps.angular_rule(8)
    grid = dio.scalar_flux(_const_net(0.7), quad_ang, nx=5, ny=5)
    assert np.all(grid.values >= 0)


def test_metrics_roundtrip(tmp_path):
    rows = [
        (0, 0, 1.5, 1.0, 0.25, 0.25, 0.9, 0.0),
        (0, 1, 1.25, 0.75, 0.25, 0.25, 0.9, 0.0),
        (1, 0, 0.5, 0.25, 0.125, 0.125, 0.45, 0.1),
    ]
    path = tmp_path / "metrics.csv"
    dio.emit_metrics(path, rows)
    text = path.read_text().splitlines()
    assert text[0] == (
        "outer,inner,loss_total,loss_pde,loss_boundary,loss_multiplier,"
        "boundary_residual,lambda_norm"
    )
    parsed = dio.parse_metrics(path)
    assert parsed == rows


def test_grid_roundtrip_row_count(tmp_path):
    grid = dio.FieldGrid(np.arange(12.0).reshape(4, 3), (0, 1, 0, 1))
    path = tmp_path / "grid.csv"
    dio.emit_grid(path, grid)
    lines = path.read_text().strip().splitlines()
    assert len(lines) == 4 * 3 + 1
    vals = np.array([float(line.split(",")[2]) for line in lines[1:]])
    np.testing.assert_array_equal(vals, grid.values.ravel())


def test_grid_file_lines_are_float_reprs(tmp_path):
    rng = np.random.default_rng(3)
    grid = dio.FieldGrid(rng.standard_normal((5, 4)) * 1e-7, (-0.3, 1.7, 0.1, 2.9))
    path = tmp_path / "grid.csv"
    dio.emit_grid(path, grid)
    xs, ys = np.linspace(-0.3, 1.7, 5), np.linspace(0.1, 2.9, 4)
    want = [
        f"{float(xs[i])!r},{float(ys[j])!r},{float(grid.values[i, j])!r}" for i in range(5) for j in range(4)
    ]
    assert path.read_text() == "\n".join(["x1,x2,value", *want]) + "\n"


def _one_string_grid(grid):
    """A grid file's text built as one joined string: the formatting that
    ``emit_grid`` streams row by row."""
    nx, ny = grid.values.shape
    xs = np.linspace(grid.extent[0], grid.extent[1], nx).tolist()
    ys = [repr(y) for y in np.linspace(grid.extent[2], grid.extent[3], ny).tolist()]
    lines = ["x1,x2,value"]
    for x, row in zip(xs, grid.values.tolist()):
        lines.extend(f"{x!r},{y},{v!r}" for y, v in zip(ys, row))
    return "\n".join(lines) + "\n"


def test_streamed_grid_file_matches_one_string(tmp_path):
    # non-square, with a negative zero and subnormals among the values
    values = np.random.default_rng(5).standard_normal((7, 3))
    values[2, 1], values[4, 0], values[6, 2] = -0.0, 5e-324, -2.2250738585072014e-309
    grid = dio.FieldGrid(values, (-0.3, 1.7, 0.1, 2.9))
    path = tmp_path / "grid.csv"
    dio.emit_grid(path, grid)
    assert path.read_bytes() == _one_string_grid(grid).encode()


def test_grid_validation():
    with pytest.raises(ContractViolation):
        dio.FieldGrid(np.zeros((1, 3)), (0, 1, 0, 1))
    with pytest.raises(ContractViolation):
        dio.FieldGrid(np.full((2, 2), np.nan), (0, 1, 0, 1))
    for shape in ((4,), (2, 2, 2)):
        with pytest.raises(ContractViolation):
            dio.FieldGrid(np.zeros(shape), (0, 1, 0, 1))


def test_manifest_roundtrip(tmp_path):
    manifest = dio.RunManifest(
        config={"seed": 3, "uzawa.rho": 0.517282191, "network.widths": "4,8,1"},
        version="0.1.0",
        wall_clock=12.25,
        final_metrics={"loss_total": 1.0e-3, "boundary_residual": 0.017},
    )
    path = tmp_path / "manifest.json"
    dio.emit_manifest(path, manifest)
    again = dio.parse_manifest(path)
    assert again == manifest


def test_atomic_write_leaves_no_temp_files(tmp_path):
    path = tmp_path / "out.csv"
    dio.emit_metrics(path, [(0, 0, 1, 1, 0, 0, 0, 0)])
    leftovers = [p for p in tmp_path.iterdir() if p.name.startswith(".tmp-emit-")]
    assert leftovers == []
    assert path.exists()


def _write_part_way(name, path):
    """Start one writer on input that raises after some lines are written."""
    if name == "emit_metrics":
        dio.emit_metrics(path, [(0, 0, 1, 1, 0, 0, 0, 0), (0, 1, "not a number", 1, 0, 0, 0, 0)])
    elif name == "save_params":
        # the magic and header lines go out before the flat vector is read
        net.save_params(SimpleNamespace(widths=(4, 8, 1), activation="tanh", flat=None), path)
    else:
        quad = ps.build_quadrature(n_spatial=3, n_angular=4, n_boundary=(2, 2))
        short = dataclasses.replace(quad.boundary, theta=quad.boundary.theta[:1])
        ps.dump_quadrature_csv(dataclasses.replace(quad, boundary=short), path)


@pytest.mark.parametrize("name", ["emit_metrics", "save_params", "dump_quadrature_csv"])
def test_a_write_that_raises_part_way_leaves_no_file(tmp_path, name):
    with pytest.raises((ValueError, AttributeError, IndexError)):
        _write_part_way(name, tmp_path / "out")
    assert list(tmp_path.iterdir()) == []


def test_written_files_get_the_mode_open_gives(tmp_path):
    umask = os.umask(0)
    os.umask(umask)
    dio.emit_metrics(tmp_path / "metrics.csv", [(0, 0, 1, 1, 0, 0, 0, 0)])
    net.save_params(net.init_params((4, 8, 1), seed=0), tmp_path / "params.uzmlp")
    for path in tmp_path.iterdir():
        assert path.stat().st_mode & 0o777 == 0o666 & ~umask

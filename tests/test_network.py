"""Trial network: init, evaluation, directional derivatives, checkpoints."""

import json
import tracemalloc
import weakref

import numpy as np
import pytest

from uzawa_transport import network as net
from uzawa_transport.errors import ContractViolation


def _one_point(params, x, theta, tangent):
    """Value and input-tangent derivative at one phase point, by ``forward_jvp_batch``."""
    emb = np.array([[x[0], x[1], np.cos(theta), np.sin(theta)]])
    u, du, _ = net.forward_jvp_batch(params, emb, np.asarray(tangent, dtype=float)[None, :])
    return u[0], du[0]


def _network(widths, activation, seed):
    """The seeded network of ``widths`` with the named activation."""
    return net.unflatten(net.init_params(widths, seed=seed).flat, widths, activation)


def _spatial(direction):
    """Input tangent of a spatial direction: the angle held fixed."""
    return np.array([direction[0], direction[1], 0.0, 0.0])


def test_init_deterministic_given_seed():
    a = net.init_params((4, 8, 1), seed=7)
    b = net.init_params((4, 8, 1), seed=7)
    assert np.array_equal(net.flatten(a), net.flatten(b))
    c = net.init_params((4, 8, 1), seed=8)
    assert not np.array_equal(net.flatten(a), net.flatten(c))


def test_param_counts():
    assert net.param_count((4, 8, 1)) == 49
    assert net.param_count((4, 16, 16, 1)) == 369
    assert net.init_params((4, 16, 16, 1)).n_params == 369


def test_no_hidden_layer_rejected():
    with pytest.raises(ContractViolation):
        net.init_params((4, 1))
    # refused before any draw: no 1/sqrt(0) warning, no negative-size array
    with pytest.raises(ContractViolation):
        net.init_params((4, 0, 1))
    with pytest.raises(ContractViolation):
        net.init_params((4, -3, 1))
    with pytest.raises(ContractViolation):
        net.init_params((4, 8, 2))


def test_zero_params_give_zero_output():
    params = net.init_params((4, 8, 1), seed=0)
    zero = net.unflatten(np.zeros(params.n_params), params.widths)
    theta = np.array([0.0, 1.3, 5.0])
    assert np.array_equal(net.eval_batch(zero, np.tile([0.3, 0.8], (3, 1)), theta), np.zeros(3))


def test_eval_matches_hand_rolled_matrices():
    params = net.init_params((4, 5, 3, 1), seed=13)
    v = np.array([0.21, 0.77, np.cos(2.3), np.sin(2.3)])
    a = v
    for W, b in zip(params.weights[:-1], params.biases[:-1]):
        a = np.tanh(W @ a + b)
    expected = float((params.weights[-1] @ a + params.biases[-1])[0])
    assert abs(net.eval_batch(params, np.array([[0.21, 0.77]]), [2.3])[0] - expected) <= 1e-14


def test_directional_derivative_finite_difference():
    params = net.init_params((4, 16, 16, 1), seed=3)
    rng = np.random.default_rng(0)
    for _ in range(5):
        x = rng.uniform(0.1, 0.9, 2)
        theta = rng.uniform(0, 2 * np.pi)
        ang = rng.uniform(0, 2 * np.pi)
        d = np.array([np.cos(ang), np.sin(ang)])
        _, du = _one_point(params, x, theta, _spatial(d))
        h = 1e-5
        u_pm = net.eval_batch(params, np.stack([x + h * d, x - h * d]), [theta, theta])
        fd = (u_pm[0] - u_pm[1]) / (2 * h)
        assert abs(du - fd) / max(abs(fd), 1e-12) <= 1e-6


def test_directional_antisymmetry():
    params = net.init_params((4, 8, 1), seed=4)
    x, d = np.array([0.4, 0.6]), np.array([np.cos(0.2), np.sin(0.2)])
    _, du_fwd = _one_point(params, x, 0.9, _spatial(d))
    _, du_bwd = _one_point(params, x, 0.9, _spatial(-d))
    assert du_fwd == pytest.approx(-du_bwd, abs=1e-15)


def test_constant_output_network_has_zero_directional():
    params = net.init_params((4, 8, 1), seed=0)
    flat = np.zeros(params.n_params)
    flat[-1] = 3.7  # output bias only
    const = net.unflatten(flat, params.widths)
    u, du = _one_point(const, np.array([0.3, 0.3]), 1.0, _spatial([1.0, 0.0]))
    assert u == pytest.approx(3.7)
    assert du == 0.0


def test_flatten_unflatten_roundtrip_preserves_eval():
    params = net.init_params((4, 12, 12, 1), seed=21)
    again = net.unflatten(net.flatten(params), params.widths)
    x, theta = np.array([[0.11, 0.93]]), [4.2]
    assert net.eval_batch(params, x, theta)[0] == net.eval_batch(again, x, theta)[0]
    assert np.array_equal(net.flatten(params), net.flatten(again))


def test_layer_views_share_the_flat_vector():
    params = net.init_params((4, 6, 5, 1), seed=2)
    for view in (*params.weights, *params.biases):
        assert np.shares_memory(view, params.flat)
    params.biases[1][0] = 0.25
    assert params.flat[6 * 4 + 6 + 5 * 6] == 0.25  # after W0, b0 and W1


def test_unflatten_owns_its_vector():
    params = net.init_params((4, 6, 5, 1), seed=2)
    vec = net.flatten(params)
    again = net.unflatten(vec, params.widths, params.activation)
    assert again.flat.tobytes() == params.flat.tobytes()
    assert not np.shares_memory(again.flat, vec)
    assert not np.shares_memory(vec, params.flat)
    vec[:] = 0.0
    assert again.flat.tobytes() == params.flat.tobytes()


def test_flat_vector_checked_on_construction():
    params = net.init_params((4, 8, 1), seed=1)
    with pytest.raises(ContractViolation):
        net.MlpParams(params.flat[:-1], params.widths)
    bad = params.flat.copy()
    bad[3] = np.nan
    with pytest.raises(ContractViolation):
        net.MlpParams(bad, params.widths)
    with pytest.raises(ContractViolation):
        net.MlpParams(params.flat, params.widths, "relu")


def test_batch_matches_single_point():
    params = net.init_params((4, 10, 1), seed=6)
    rng = np.random.default_rng(5)
    x = rng.uniform(0, 1, (20, 2))
    theta = rng.uniform(0, 2 * np.pi, 20)
    u = net.eval_batch(params, x, theta)
    for i in range(20):
        assert u[i] == pytest.approx(net.eval_batch(params, x[i : i + 1], theta[i : i + 1])[0], abs=1e-14)


@pytest.mark.parametrize("activation", list(net.ACTIVATIONS))
def test_eval_batch_blocks_match_forward_batch_bitwise(activation):
    # two block boundaries plus a ragged tail
    params = _network((4, 16, 16, 1), activation, 8)
    rng = np.random.default_rng(3)
    n = 2 * net.ROW_BLOCK + 3
    x = rng.uniform(0, 1, (n, 2))
    theta = rng.uniform(0, 2 * np.pi, n)
    u_ref, _ = net.forward_batch(params, net._embed(x, theta))
    assert np.array_equal(net.eval_batch(params, x, theta), u_ref)


@pytest.mark.parametrize("activation", list(net.ACTIVATIONS))
def test_activation_orders_are_prefixes(activation):
    act = net.ACTIVATIONS[activation]
    z = np.linspace(-6.0, 6.0, 241)
    full = act(z, 2)
    assert len(full) == 3
    for order in (0, 1):
        part = act(z, order)
        assert len(part) == order + 1
        for got, want in zip(part, full):
            assert np.array_equal(got, want)


@pytest.mark.parametrize("activation", list(net.ACTIVATIONS))
def test_activation_in_place_matches_out_of_place(activation):
    # the stacked pass hands the pre-activation in as out[0]
    act = net.ACTIVATIONS[activation]
    z = np.linspace(-6.0, 6.0, 241)
    for order in (0, 1, 2):
        want = act(z, order)
        got = (z.copy(), *(np.empty_like(z) for _ in range(order)))
        act(got[0], order, got)
        for g, w in zip(got, want):
            assert np.array_equal(g, w)


# each activation and its first derivative, analytic in z
_DENSE_ACTIVATIONS = {"tanh": (np.tanh, lambda z: 1.0 - np.tanh(z) ** 2)}


def _dense_reference(flat, widths, activation, emb, tan):
    """Values and tangents of the network with flat parameters ``flat``
    (complex allowed), one dense layer at a time, in ``flatten`` order."""
    act, dact = _DENSE_ACTIVATIONS[activation]
    a, t, k = emb.T, tan.T, 0
    for layer, (din, dout) in enumerate(zip(widths[:-1], widths[1:])):
        W = flat[k : k + dout * din].reshape(dout, din)
        b = flat[k + dout * din : k + dout * din + dout]
        k += dout * din + dout
        z, t = W @ a + b[:, None], W @ t
        if layer < len(widths) - 2:
            a, t = act(z), dact(z[:, : t.shape[1]]) * t
        else:
            a = z
    return a[0], t[0]


@pytest.mark.parametrize("activation", list(net.ACTIVATIONS))
def test_kernels_match_complex_step(activation):
    # complex step (Squire & Trapp, SIAM Rev. 1998): dF/dp_i = Im F(p + i h e_i) / h
    # is exact to rounding, with no cancellation, for h far below any scale
    widths, n, n_t, h = (4, 7, 5, 1), 6, 4, 1e-200
    rng = np.random.default_rng(42)
    params = _network(widths, activation, 3)
    x = rng.uniform(0.05, 0.95, (n, 2))
    theta = rng.uniform(0, 2 * np.pi, n)
    emb = net._embed(x, theta)
    tan = net._transport_tangent(theta[:n_t])
    seed_value, seed_tangent = rng.standard_normal(n), rng.standard_normal(n_t)
    flat = net.flatten(params)

    u, du, cache = net.forward_jvp_batch(params, emb, tan)
    grad = net.vjp_jvp_batch(params, cache, seed_value, seed_tangent)
    u_ref, du_ref = _dense_reference(flat, widths, activation, emb, tan)
    np.testing.assert_allclose(u, u_ref, rtol=0, atol=1e-13)
    np.testing.assert_allclose(du, du_ref, rtol=0, atol=1e-13)
    cs = np.empty(flat.size)
    for i in range(flat.size):
        step = flat.astype(complex)
        step[i] += 1j * h
        u_c, du_c = _dense_reference(step, widths, activation, emb, tan)
        cs[i] = (seed_value @ u_c + seed_tangent @ du_c).imag / h
    np.testing.assert_allclose(grad, cs, rtol=0, atol=1e-13)


@pytest.mark.parametrize("activation", list(net.ACTIVATIONS))
def test_activations_gradient_check(activation):
    params = _network((4, 6, 1), activation, 2)
    x = np.array([0.42, 0.58])
    theta = 0.77
    emb = net._embed(x[None, :], [theta])
    tan = net._transport_tangent(np.array([theta]))
    _, _, cache = net.forward_jvp_batch(params, emb, tan)
    grad = net.vjp_jvp_batch(params, cache, np.array([1.0]), np.array([0.5]))
    flat = net.flatten(params)

    def combined(vec):
        p = net.unflatten(vec, params.widths, activation)
        u, du = _one_point(p, x, theta, tan[0])
        return u + 0.5 * du

    h = 1e-6
    fd = np.zeros_like(flat)
    for i in range(flat.size):
        e = np.zeros_like(flat)
        e[i] = h
        fd[i] = (combined(flat + e) - combined(flat - e)) / (2 * h)
    rel = np.abs(fd - grad) / np.maximum(1.0, np.abs(grad))
    assert rel.max() <= 1e-6


def test_smoothness_under_small_perturbation():
    params = net.init_params((4, 32, 32, 1), seed=11)
    d = _spatial([1.0, 0.0])
    u0, du0 = _one_point(params, np.array([0.5, 0.5]), 1.0, d)
    u1, du1 = _one_point(params, np.array([0.5 + 1e-6, 0.5 - 1e-6]), 1.0 + 1e-6, d)
    assert np.isfinite([u0, du0, u1, du1]).all()
    assert abs(u1 - u0) <= 1e-4
    assert abs(du1 - du0) <= 1e-4


def test_checkpoint_roundtrip(tmp_path):
    params = net.init_params((4, 16, 1), seed=17)
    path = tmp_path / "net.uzmlp"
    net.save_params(params, path)
    with open(path, "rb") as fh:
        assert fh.read(6) == b"UZMLP1"
        assert fh.readline() == b"\n"
        assert json.loads(fh.readline()) == {"widths": [4, 16, 1], "activation": "tanh"}
    loaded = net.load_params(path)
    assert loaded.widths == params.widths
    assert loaded.activation == "tanh"
    assert np.array_equal(net.flatten(loaded), net.flatten(params))


@pytest.mark.parametrize("activation", ["gelu", "silu"])
def test_checkpoint_of_a_retired_activation_refused(tmp_path, activation):
    path = tmp_path / "net.uzmlp"
    net.save_params(net.init_params((4, 16, 1), seed=17), path)
    raw = path.read_bytes().replace(b'"tanh"', f'"{activation}"'.encode(), 1)
    path.write_bytes(raw)
    with pytest.raises(ContractViolation, match=f"unknown activation '{activation}'"):
        net.load_params(path)


def test_input_width_other_than_four_rejected():
    # the trial space is on D x S^1 only through the (cos, sin) input
    with pytest.raises(ContractViolation):
        net.init_params((3, 8, 1), seed=1)
    with pytest.raises(ContractViolation):
        net.MlpParams(np.zeros(net.param_count((3, 8, 1))), (3, 8, 1))


def test_cos_sin_periodicity():
    params = net.init_params((4, 8, 1), seed=5)
    u = net.eval_batch(params, np.tile([0.3, 0.3], (2, 1)), [0.4, 0.4 + 2 * np.pi])
    assert u[0] == pytest.approx(u[1], abs=1e-14)


@pytest.mark.parametrize("activation", list(net.ACTIVATIONS))
@pytest.mark.parametrize("widths", [(4, 16, 16, 1), (4, 7, 5, 1)])
def test_stacked_rails_match_separate_passes(activation, widths):
    # tangents on the first n_t rows only; the rest are value-only
    params = _network(widths, activation, 4)
    rng = np.random.default_rng(9)
    n, n_t = 23, 15
    emb = rng.uniform(-1.0, 1.0, (n, 4))
    tan = rng.uniform(-1.0, 1.0, (n_t, 4))
    seed_value = rng.standard_normal(n)
    seed_tangent = rng.standard_normal(n_t)
    u_t, du_t, cache_t = net.forward_jvp_batch(params, emb[:n_t], tan)
    g_sep = net.vjp_jvp_batch(params, cache_t, seed_value[:n_t], seed_tangent)
    u_v, cache_v = net.forward_batch(params, emb[n_t:])
    g_sep = g_sep + net.vjp_value_batch(params, cache_v, seed_value[n_t:])

    u, du, cache = net.forward_jvp_batch(params, emb, tan)
    u_sep = np.concatenate([u_t, u_v])
    np.testing.assert_allclose(u, u_sep, rtol=1e-14, atol=1e-14 * np.abs(u_sep).max())
    np.testing.assert_allclose(du, du_t, rtol=1e-14, atol=1e-14 * np.abs(du_t).max())
    grad = net.vjp_jvp_batch(params, cache, seed_value, seed_tangent)
    assert np.linalg.norm(grad - g_sep) <= 1e-13 * np.linalg.norm(g_sep)


def test_stale_cache_rejected():
    params = net.init_params((4, 7, 5, 1), seed=2)
    rng = np.random.default_rng(1)
    emb, tan = rng.uniform(-1.0, 1.0, (6, 4)), rng.uniform(-1.0, 1.0, (4, 4))
    seeds = (np.ones(6), np.ones(4))
    u, du, stale = net.forward_jvp_batch(params, emb, tan)
    kept = (u.copy(), du.copy())
    _, _, cache = net.forward_jvp_batch(params, 2.0 * emb, tan)  # reuses the workspace
    assert np.array_equal(u, kept[0]) and np.array_equal(du, kept[1])
    with pytest.raises(ContractViolation):
        net.vjp_jvp_batch(params, stale, *seeds)
    net.vjp_jvp_batch(params, cache, *seeds)
    with pytest.raises(ContractViolation):  # one reverse sweep per cache
        net.vjp_jvp_batch(params, cache, *seeds)
    with pytest.raises(ContractViolation):
        net.forward_jvp_batch(params, emb[:3], tan)


@pytest.mark.parametrize("activation", list(net.ACTIVATIONS))
def test_streamed_jvp_matches_cached_pass_bitwise(activation):
    # one pass without a cache, its rows not a multiple of ROW_ALIGN
    params = _network((4, 16, 16, 1), activation, 8)
    rng = np.random.default_rng(6)
    n, n_t = net.ROW_BLOCK + 9, net.ROW_BLOCK + 4
    x = rng.uniform(0, 1, (n, 2))
    theta = rng.uniform(0, 2 * np.pi, n)
    emb = net._embed(x, theta)
    tan = net._transport_tangent(theta[:n_t])
    u_ref, du_ref, _ = net.forward_jvp_batch(params, emb, tan)
    u, du = net.eval_jvp_batch(params, emb, tan)
    assert np.array_equal(u, u_ref)
    assert np.array_equal(du, du_ref)


def test_stacked_pass_keeps_only_tangent_pre_activations(peak_bytes):
    # mc-manufactured's step: 4,352 value rows, the first 256 with tangents;
    # the layer inputs and first derivatives alone are 13.9 MB
    params = net.init_params((4, 64, 64, 64, 1), seed=0)
    rng = np.random.default_rng(2)
    emb, tan = rng.uniform(-1.0, 1.0, (4352, 4)), rng.uniform(-1.0, 1.0, (256, 4))
    seeds = rng.standard_normal(4352), rng.standard_normal(256)

    def step():
        _, _, cache = net.forward_jvp_batch(params, emb, tan)
        net.vjp_jvp_batch(params, cache, *seeds)

    net.release_workspace()
    assert peak_bytes(step) < 16e6


def test_stacked_pass_caches_one_product_per_tangent_row(peak_bytes):
    # scatter-tensor's step: 1,792 value rows, the first 1,536 with tangents
    params = net.init_params((4, 64, 64, 64, 1), seed=0)
    rng = np.random.default_rng(5)
    emb, tan = rng.uniform(-1.0, 1.0, (1792, 4)), rng.uniform(-1.0, 1.0, (1536, 4))
    seeds = rng.standard_normal(1792), rng.standard_normal(1536)

    def step():
        _, _, cache = net.forward_jvp_batch(params, emb, tan)
        net.vjp_jvp_batch(params, cache, *seeds)

    net.release_workspace()
    assert peak_bytes(step) < 11.5e6


def test_streamed_pass_frees_the_training_workspace():
    # once its cache is gone, a training step's workspace does not outlive
    # the next streamed pass: only the block workspace stays held
    params = net.init_params((4, 64, 64, 64, 1), seed=0)
    rng = np.random.default_rng(6)
    emb, tan = rng.uniform(-1.0, 1.0, (1792, 4)), rng.uniform(-1.0, 1.0, (1536, 4))
    x, theta = rng.uniform(0, 1, (100, 2)), rng.uniform(0, 2 * np.pi, 100)
    net.release_workspace()
    tracemalloc.start()
    try:
        _, _, cache = net.forward_jvp_batch(params, emb, tan)
        net.vjp_jvp_batch(params, cache, np.ones(1792), np.ones(1536))
        del cache
        u = net.eval_batch(params, x, theta)
        held = tracemalloc.get_traced_memory()[0] + sum(ws.nbytes for ws in net._SLOTS.values())
    finally:
        tracemalloc.stop()
    assert np.isfinite(u).all()
    assert held < 4e6


@pytest.mark.parametrize("activation", list(net.ACTIVATIONS))
def test_cache_outlives_a_workspace_switch(activation):
    # a streamed pass replaces the live workspace; the cache keeps its own
    params = _network((4, 16, 16, 1), activation, 5)
    rng = np.random.default_rng(8)
    emb, tan = rng.uniform(-1.0, 1.0, (23, 4)), rng.uniform(-1.0, 1.0, (15, 4))
    seeds = rng.standard_normal(23), rng.standard_normal(15)
    x, theta = rng.uniform(0, 1, (40, 2)), rng.uniform(0, 2 * np.pi, 40)

    _, _, cache = net.forward_jvp_batch(params, emb, tan)
    want = net.vjp_jvp_batch(params, cache, *seeds)
    _, _, cache = net.forward_jvp_batch(params, emb, tan)
    net.eval_batch(params, x, theta)
    assert cache[0] not in net._SLOTS.values()
    assert np.array_equal(net.vjp_jvp_batch(params, cache, *seeds), want)


def test_a_growing_workspace_is_built_after_the_old_one_is_gone(monkeypatch):
    # no cache holds the 64-row workspace, so it must be gone before the
    # 128-row one is built, or the two coexist
    params = net.init_params((4, 8, 1), seed=0)
    rng = np.random.default_rng(9)
    alive, at_build, init = weakref.WeakSet(), [], net._Workspace.__init__

    def counted_init(ws, *args):
        at_build.append(len(alive))
        init(ws, *args)
        alive.add(ws)

    monkeypatch.setattr(net._Workspace, "__init__", counted_init)
    net.release_workspace()
    for n in (64, 128):
        net.forward_jvp_batch(params, rng.uniform(-1.0, 1.0, (n, 4)), rng.uniform(-1.0, 1.0, (n, 4)))
    assert at_build == [0, 0]

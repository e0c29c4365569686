"""Fully-connected trial functions on the position-angle domain.

A network maps the embedded phase point (x1, x2, cos(theta), sin(theta))
to a scalar, so its input width is 4 and its output is 2*pi-periodic in
the angle: the trial space lives on D x S^1.  Every function that takes
phase points (x, theta) embeds them itself.  Its parameters are one
float64 vector, ``MlpParams.flat``: per affine layer the weight matrix
row-major, then the bias; the per-layer arrays are views of it.  The
activation is tanh, the one entry of ``ACTIVATIONS``; ``MlpParams`` and
checkpoint headers carry its name.  Two kinds of batched kernel evaluate it:

- ``forward_jvp_batch`` evaluates n embedded rows plus a forward tangent
  rail (for omega-directional spatial derivatives) on the first n_t of
  them, both rails stacked so each layer is one GEMM, and caches what one
  reverse sweep, ``vjp_jvp_batch``, needs for exact gradients of
  derivative-containing losses: each layer's stacked input, the
  activation's derivative at the n value rows, and, at the n_t tangent
  rows only, the second derivative times the tangent pre-activation (the
  one product the sweep reads).  Each GEMM writes into the next layer's
  input, where the activation runs in place, so no full-height
  pre-activation is kept.  Every pass that fits reuses the buffers, so a
  training step allocates no layer temporaries, however many passes it
  makes; ``forward_batch``/``vjp_value_batch`` are n_t = 0.
- ``eval_jvp_batch`` (embedded rows, as ``forward_jvp_batch``, whose
  pass body it shares) and ``eval_batch`` (values only, at phase points)
  keep no cache: their workspace alternates two input buffers and shares
  one derivative buffer.  ``eval_jvp_batch`` is one pass of the rows it
  is handed; ``eval_batch`` cuts its points into ``ROW_BLOCK``-row passes.

``ROW_BLOCK`` is the one per-pass row budget.  Callers keep to it: the
residual assembly walks ``kinetic_ops.PhaseRows.tiles``, which reads it,
and the flux and slice grids of ``diagnostics_io`` stream ``eval_jvp_batch``
blocks of whole grid points.

Only one workspace is live, sized to the largest (n, n_t) it has served:
a pass that does not fit grows it, and one of another (widths,
activation, derivative order) drops it and builds its own.
``uzawa.inner_minimize`` ends the training phase with
``release_workspace``, so the outer full-set ``lagrangian.assemble`` and
the output emission run without the training buffers, and a run's peak
memory is its largest phase, not their sum.  A cache keeps its own
workspace alive until it is swept or dropped.  Workspace buffers are
anonymous memory mappings (``_mapped``), which ``tracemalloc`` does not
see; each workspace records their total size in ``nbytes``.
"""

from __future__ import annotations

import json
import mmap
from dataclasses import dataclass

import numpy as np

from .errors import ContractViolation

CHECKPOINT_MAGIC = b"UZMLP1"

# Stacked rows (value + tangent) per pass: a 64-wide layer array of one pass
# is 1,024 x 64 x 8 B = 512 KB, inside a 2 MB L2 cache.
ROW_BLOCK = 1024

# Passes are padded with zero rows to a multiple of ``ROW_ALIGN``: BLAS rounds a
# product's ragged tail rows, and all rows of a small one, by other kernels.
ROW_ALIGN = 64


def _embed(x, theta):
    """Network input rows (x1, x2, cos theta, sin theta) of phase points."""
    return np.column_stack([x[:, 0], x[:, 1], np.cos(theta), np.sin(theta)])


def _transport_tangent(theta):
    """Input tangents (cos theta, sin theta, 0, 0): each point's own direction
    omega moves the position and holds the angle."""
    zero = np.zeros_like(theta)
    return np.column_stack([np.cos(theta), np.sin(theta), zero, zero])


def _act_tanh(z, order, out=None):
    """Activation and its derivatives up to ``order``: a prefix of (a, d1, d2),
    written into the ``order + 1`` arrays of ``out`` when given.  ``z`` is
    read only by the first write, to ``out[0]``, so ``out[0]`` may be ``z``."""
    out = out or tuple(np.empty_like(z) for _ in range(order + 1))
    a = np.tanh(z, out=out[0])
    if order:
        np.subtract(1.0, np.multiply(a, a, out=out[1]), out=out[1])
    if order == 2:
        np.multiply(np.multiply(a, -2.0, out=out[2]), out[1], out=out[2])
    return out


# a table, so that perfbench/tracer.py can wrap its entries by name
ACTIVATIONS = {"tanh": _act_tanh}


@dataclass
class MlpParams:
    """The trial network as one float64 vector ``flat``: per affine layer the
    weight matrix row-major, then the bias.  ``weights``/``biases`` are views
    of it, so editing either edits ``flat``; a stepped vector is a network."""

    flat: np.ndarray
    widths: tuple
    activation: str = "tanh"

    def __post_init__(self):
        self.flat, self.widths = np.asarray(self.flat, dtype=float), tuple(int(w) for w in self.widths)
        if self.activation not in ACTIVATIONS:
            raise ContractViolation(f"unknown activation '{self.activation}'")
        if len(self.widths) < 3:
            raise ContractViolation("need (d0, ..., 1) with at least one hidden layer")
        if self.widths[0] != 4:
            raise ContractViolation("input width must be 4, the embedding (x1, x2, cos theta, sin theta)")
        if self.widths[-1] != 1:
            raise ContractViolation("output width must be 1")
        if any(w <= 0 for w in self.widths):
            raise ContractViolation("all widths must be positive")
        if self.flat.shape != (param_count(self.widths),):
            raise ContractViolation("flat vector length does not match widths")
        if not np.all(np.isfinite(self.flat)):
            raise ContractViolation("parameters must be finite")
        self.weights, self.biases = map(list, zip(*_layer_views(self.flat, self.widths)))

    @property
    def n_params(self):
        return self.flat.size


def param_count(widths):
    """Total degrees of freedom: sum of d_l * d_{l-1} + d_l over layers."""
    return sum(widths[i + 1] * widths[i] + widths[i + 1] for i in range(len(widths) - 1))


def init_params(widths, seed=0):
    """Uniform weights scaled by 1/sqrt(fan-in), zero biases, seeded."""
    # checked as the zero network before any draw; max(): bad widths can count < 0
    params = MlpParams(np.zeros(max(param_count(widths), 0)), widths)
    rng = np.random.default_rng(seed)
    for W in params.weights:
        scale = 1.0 / np.sqrt(W.shape[1])
        W[...] = rng.uniform(-scale, scale, size=W.shape)
    return params


def flatten(params):
    """A copy of the flat parameter vector."""
    return params.flat.copy()


def _layer_views(vec, widths):
    """Per-layer (weight, bias) views into a flat parameter vector: the one
    place that knows the layout."""
    views, k = [], 0
    for din, dout in zip(widths[:-1], widths[1:]):
        views.append((vec[k : k + dout * din].reshape(dout, din), vec[k + dout * din : k + dout * din + dout]))
        k += dout * din + dout
    return views


def unflatten(vec, widths, activation="tanh"):
    """The network of a flat vector; it owns a copy of ``vec``."""
    return MlpParams(np.array(vec, dtype=float), widths, activation)


# -- batched kernels --------------------------------------------------------


def _mapped(size):
    """A float64 buffer of ``size`` entries in its own anonymous mapping,
    whose pages go back to the system when it is dropped.  Heap arrays
    would stay resident, and workspaces rebuilt twice per outer step would
    fragment the heap, so peak memory would creep up with outer steps."""
    # a mapping cannot be empty; an n_t = 0 buffer gets one unused entry
    return np.frombuffer(mmap.mmap(-1, 8 * max(size, 1)), dtype=float)


class _Workspace:
    """Flat layer buffers for up to ``capacity`` = (n, n_t) rows, viewed by
    ``layout`` for any pass of n rows whose first n_t carry tangents.
    ``h[l]`` is layer l's input: n value rows over n_t tangent rows over
    zero rows (``ROW_ALIGN``), so a layer is one GEMM, which writes into
    ``h[l + 1]``; the activation then runs in place on the value rows.
    ``d1`` holds the activation's derivative at the value rows.  Order 2 (a
    reverse sweep follows) gives each layer its own buffers plus ``d2``:
    at the tangent rows only, the second derivative times the tangent
    pre-activation; order 1 alternates two input buffers and shares one
    ``d1``.  ``nbytes`` is the size of all its buffers."""

    def __init__(self, widths, n, n_t, order):
        def flat(count, rows, ws):
            count = len(ws) if order == 2 else count
            return [_mapped(rows * max(ws[i::count])) for i in range(count)]

        self.widths, self.generation, self.capacity, hidden = widths, 0, (n, n_t), widths[1:-1]
        self._h, self._d1 = flat(2, _aligned(n + n_t), widths[:-1]), flat(1, n, hidden)
        self._d2 = flat(1, n_t, hidden) if order == 2 else None
        self._out = _mapped(_aligned(n + n_t))
        self.nbytes = sum(b.nbytes for b in (*self._h, *self._d1, *(self._d2 or ()), self._out))

    def layout(self, n, n_t):
        def views(bufs, rows, ws):
            return [bufs[i % len(bufs)][: rows * w].reshape(rows, w) for i, w in enumerate(ws)]

        self.n, self.n_t, hidden = n, n_t, self.widths[1:-1]
        self.h, self.d1 = views(self._h, _aligned(n + n_t), self.widths[:-1]), views(self._d1, n, hidden)
        self.h[0][n + n_t :] = 0.0  # zero rows stay zero through every layer and sweep
        self.d2 = views(self._d2, n_t, hidden) if self._d2 else None
        self.out = self._out[: _aligned(n + n_t)].reshape(-1, 1)


def _aligned(rows):
    return -(-rows // ROW_ALIGN) * ROW_ALIGN


_SLOTS = {}  # the one live workspace, under its key


def release_workspace():
    """Drop the live workspace; its pages go back to the system once no
    cache holds it.  The next pass builds its own."""
    _SLOTS.clear()


def _workspace(params, n, n_t, order):
    """The live workspace for this network and order, laid out for (n, n_t).
    Growing it, or a different key, drops the live one before the new one
    is built, so two never coexist unless a cache still holds the old one."""
    key = (params.widths, params.activation, order)
    ws = _SLOTS.get(key)
    if ws is None or n > ws.capacity[0] or n_t > ws.capacity[1]:
        cap = (max(n, ws.capacity[0]), max(n_t, ws.capacity[1])) if ws else (n, n_t)
        ws = None
        release_workspace()
        ws = _SLOTS[key] = _Workspace(params.widths, *cap, order)
    ws.layout(n, n_t)
    return ws


def _forward(params, ws):
    """Stacked output (values, then tangents) before the last bias."""
    act = ACTIVATIONS[params.activation]
    n, n_t = ws.n, ws.n_t
    order = 2 if ws.d2 else 1
    for layer, (W, b) in enumerate(zip(params.weights[:-1], params.biases[:-1])):
        a = np.matmul(ws.h[layer], W.T, out=ws.h[layer + 1])
        z, tangent = a[:n], a[n : n + n_t]
        z += b
        bufs = (z, ws.d1[layer], ws.d2[layer]) if ws.d2 else (z, ws.d1[layer])
        # tangent rows need one derivative order more than value rows
        if n_t:
            act(z[:n_t], order, tuple(buf[:n_t] for buf in bufs))
        if n > n_t:
            act(z[n_t:], order - 1, tuple(buf[n_t:n] for buf in bufs[:order]))
        if ws.d2:
            ws.d2[layer] *= tangent  # the sweep reads only d2 * t
        tangent *= ws.d1[layer][:n_t]
    return np.matmul(ws.h[-1], params.weights[-1].T, out=ws.out)


def _pass(params, emb, emb_tangent, order):
    """One stacked pass in the workspace of ``order``: fresh values at every
    embedded row, fresh tangent derivatives at the first n_t, the workspace."""
    emb, tangent = np.asarray(emb, dtype=float), np.asarray(emb_tangent, dtype=float)
    n, n_t = emb.shape[0], tangent.shape[0]
    if n_t > n:
        raise ContractViolation("more tangent rows than rows")
    ws = _workspace(params, n, n_t, order)
    ws.h[0][:n], ws.h[0][n : n + n_t] = emb, tangent
    out = _forward(params, ws)[:, 0]
    return out[:n] + params.biases[-1], out[n : n + n_t].copy(), ws


def forward_jvp_batch(params, emb, emb_tangent):
    """Values at every embedded row and tangent-rail directional derivatives
    at the first n_t <= n rows, whose tangents ``emb_tangent`` holds.

    Returns fresh (u, du) and a cache for one ``vjp_jvp_batch`` sweep, made
    stale by the next pass that reuses its workspace."""
    u, du, ws = _pass(params, emb, emb_tangent, 2)
    ws.generation += 1
    return u, du, (ws, ws.generation)


def forward_batch(params, emb):
    """Values and a ``vjp_value_batch`` cache: the n_t = 0 case of ``forward_jvp_batch``."""
    emb = np.asarray(emb, dtype=float)
    u, _, cache = forward_jvp_batch(params, emb, emb[:0])
    return u, cache


def vjp_jvp_batch(params, cache, seed_value, seed_tangent):
    """Gradient of sum_i seed_value[i]*u_i + sum_j seed_tangent[j]*du_j.

    Per layer one weight-gradient GEMM into the flat gradient and, above the
    input layer, one adjoint GEMM over the stacked rails; tangent adjoints
    enter through the activation's second derivative, which makes gradients
    of directional derivatives exact.  The sweep overwrites the cached layer
    inputs and second-derivative products, so a cache admits one sweep; a
    stale cache raises."""
    ws, generation = cache
    if generation != ws.generation:
        raise ContractViolation("stale forward cache: its workspace was reused or already swept")
    ws.generation += 1
    n, n_t = ws.n, ws.n_t
    adj = ws.out
    adj[:n, 0], adj[n : n + n_t, 0], adj[n + n_t :] = seed_value, seed_tangent, 0.0
    grad, ones = np.empty(params.n_params), np.ones(n)
    views = _layer_views(grad, params.widths)
    last = len(params.weights) - 1
    for layer in range(last, -1, -1):
        if layer < last:
            zbar, tbar, d2 = adj[:n], adj[n : n + n_t], ws.d2[layer]
            d2 *= tbar
            zbar *= ws.d1[layer]
            zbar[:n_t] += d2
            tbar *= ws.d1[layer][:n_t]
        np.matmul(adj.T, ws.h[layer], out=views[layer][0])
        np.matmul(ones, adj[:n], out=views[layer][1])  # one GEMV: a third of np.sum(axis=0)
        if layer:
            # the output layer's adjoint is an outer product with its one weight row
            mix = np.multiply if layer == last else np.matmul
            adj = mix(adj, params.weights[layer], out=ws.h[layer])
    return grad


def vjp_value_batch(params, cache, seed_value):
    """Gradient of sum_i seed_value[i] * u_i wrt the flat parameters."""
    return vjp_jvp_batch(params, cache, seed_value, ())


def eval_jvp_batch(params, emb, emb_tangent):
    """``forward_jvp_batch`` without a cache: the same arithmetic in one pass
    through the order-1 workspace, which keeps no layer's input."""
    return _pass(params, emb, emb_tangent, 1)[:2]


def eval_batch(params, x, theta):
    """Network values at phase points (x, theta), embedded and evaluated a ``ROW_BLOCK`` at a time."""
    x, theta = np.atleast_2d(np.asarray(x, dtype=float)), np.atleast_1d(np.asarray(theta, dtype=float))
    u = np.empty(theta.shape[0])
    for lo in range(0, u.shape[0], ROW_BLOCK):
        emb = _embed(x[lo : lo + ROW_BLOCK], theta[lo : lo + ROW_BLOCK])
        u[lo : lo + ROW_BLOCK] = eval_jvp_batch(params, emb, emb[:0])[0]
    return u


# -- checkpoint io ------------------------------------------------------------


def save_params(params, path):
    """Checkpoint: magic, one JSON header line, then little-endian float64."""
    header = {"widths": list(params.widths), "activation": params.activation}
    with open(path, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC + b"\n")
        fh.write(json.dumps(header).encode() + b"\n")
        fh.write(params.flat.astype("<f8").tobytes())


def load_params(path):
    with open(path, "rb") as fh:
        magic = fh.readline().strip()
        if magic != CHECKPOINT_MAGIC:
            raise ContractViolation(f"not a parameter checkpoint: {path}")
        header = json.loads(fh.readline().decode())
        flat = np.frombuffer(fh.read(), dtype="<f8")
    return unflatten(flat, tuple(header["widths"]), header["activation"])

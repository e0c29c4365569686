"""Fully-connected trial functions on the position-angle domain.

A network maps the embedded phase point to a scalar.  The default
embedding feeds (x1, x2, cos(theta), sin(theta)) so the output is
automatically 2*pi-periodic in the angle; a raw-angle mode is kept for
ablation.  Three batched kernels evaluate it, each keeping only what its
callers need:

- ``eval_batch`` computes values only.  It embeds and evaluates
  ``ROW_BLOCK`` rows at a time into one output array and keeps no cache,
  so forward-only passes (grids, boundary values, single points) stay
  cache-sized however many rows they cover.
- ``forward_batch`` returns values and a cache of activations and first
  derivative factors, which ``vjp_value_batch`` consumes.
- ``forward_jvp_batch`` adds a forward tangent rail (for omega-directional
  spatial derivatives) and caches the second derivative factors as well,
  which the matching reverse sweep ``vjp_jvp_batch`` needs so that
  parameter gradients of derivative-containing losses are exact.

A tape-based single-point path (module ``autodiff``) implements the same
scheme node by node and is used to cross-check the batched kernels.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np
from scipy.special import erf

from . import autodiff
from .errors import ContractViolation
from .phase_space import EPS_UNIT, PhasePoint

CHECKPOINT_MAGIC = b"UZMLP1"

# Rows per block in ``eval_batch``, small enough that one block's layer
# activations stay cache-sized.
ROW_BLOCK = 4096

COS_SIN = "cos-sin"
RAW_ANGLE = "raw-angle"


@dataclass(frozen=True)
class PhaseEmbedding:
    """How the direction is fed to the network."""

    mode: str = COS_SIN

    @property
    def dim(self):
        if self.mode == COS_SIN:
            return 4
        if self.mode == RAW_ANGLE:
            return 3
        raise ContractViolation(f"unknown embedding mode '{self.mode}'")

    def embed(self, x, theta):
        x = np.atleast_2d(np.asarray(x, dtype=float))
        theta = np.atleast_1d(np.asarray(theta, dtype=float))
        if self.mode == COS_SIN:
            return np.column_stack([x[:, 0], x[:, 1], np.cos(theta), np.sin(theta)])
        return np.column_stack([x[:, 0], x[:, 1], theta])

    def tangent(self, direction):
        """Embedding-space tangent of a spatial direction (angle held fixed)."""
        direction = np.atleast_2d(np.asarray(direction, dtype=float))
        pad = np.zeros((direction.shape[0], self.dim - 2))
        return np.hstack([direction, pad])


DEFAULT_EMBEDDING = PhaseEmbedding()
RAW_EMBEDDING = PhaseEmbedding(RAW_ANGLE)


def embedding_for(params):
    """Infer the phase embedding from the network's input width."""
    d0 = params.weights[0].shape[1]
    if d0 == DEFAULT_EMBEDDING.dim:
        return DEFAULT_EMBEDDING
    if d0 == RAW_EMBEDDING.dim:
        return RAW_EMBEDDING
    raise ContractViolation(f"no phase embedding with dimension {d0}")


def _act_tanh(z, order):
    """Activation and its derivatives up to ``order``: a prefix of (a, d1, d2)."""
    a = np.tanh(z)
    if order == 0:
        return (a,)
    d1 = 1.0 - a * a
    if order == 1:
        return a, d1
    return a, d1, -2.0 * a * d1


_INV_SQRT2 = 1.0 / np.sqrt(2.0)
_INV_SQRT2PI = 1.0 / np.sqrt(2.0 * np.pi)


def _act_gelu(z, order):
    cdf = 0.5 * (1.0 + erf(z * _INV_SQRT2))
    if order == 0:
        return (z * cdf,)
    pdf = _INV_SQRT2PI * np.exp(-0.5 * z * z)
    if order == 1:
        return z * cdf, cdf + z * pdf
    return z * cdf, cdf + z * pdf, pdf * (2.0 - z * z)


def _act_silu(z, order):
    s = 0.5 * (np.tanh(0.5 * z) + 1.0)
    if order == 0:
        return (z * s,)
    ds = s * (1.0 - s)
    if order == 1:
        return z * s, s + z * ds
    return z * s, s + z * ds, ds * (2.0 + z * (1.0 - 2.0 * s))


ACTIVATIONS = {"tanh": _act_tanh, "gelu": _act_gelu, "silu": _act_silu}


@dataclass
class MlpParams:
    """Weights and biases of the trial network, one entry per affine layer."""

    weights: list
    biases: list
    activation: str = "tanh"

    def __post_init__(self):
        if self.activation not in ACTIVATIONS:
            raise ContractViolation(f"unknown activation '{self.activation}'")
        if len(self.weights) < 2:
            raise ContractViolation("network needs depth >= 2 (at least one hidden layer)")
        if len(self.weights) != len(self.biases):
            raise ContractViolation("weights and biases must pair up")
        if self.weights[-1].shape[0] != 1:
            raise ContractViolation("output layer must have width 1")
        for W, b in zip(self.weights, self.biases):
            if W.shape[0] != b.shape[0]:
                raise ContractViolation("bias length must match layer width")
            if not (np.all(np.isfinite(W)) and np.all(np.isfinite(b))):
                raise ContractViolation("parameters must be finite")

    @property
    def widths(self):
        return tuple([self.weights[0].shape[1]] + [W.shape[0] for W in self.weights])

    @property
    def n_params(self):
        return sum(W.size + b.size for W, b in zip(self.weights, self.biases))


def param_count(widths):
    """Total degrees of freedom: sum of d_l * d_{l-1} + d_l over layers."""
    return sum(widths[i + 1] * widths[i] + widths[i + 1] for i in range(len(widths) - 1))


def init_params(widths, activation="tanh", seed=0):
    """Uniform weights scaled by 1/sqrt(fan-in), zero biases, seeded."""
    widths = tuple(int(w) for w in widths)
    if len(widths) < 3:
        raise ContractViolation("need widths (d0, ..., 1) with depth >= 2")
    if any(w <= 0 for w in widths):
        raise ContractViolation("all widths must be positive")
    if widths[-1] != 1:
        raise ContractViolation("output width must be 1")
    rng = np.random.default_rng(seed)
    weights, biases = [], []
    for din, dout in zip(widths[:-1], widths[1:]):
        scale = 1.0 / np.sqrt(din)
        weights.append(rng.uniform(-scale, scale, size=(dout, din)))
        biases.append(np.zeros(dout))
    return MlpParams(weights, biases, activation)


def flatten(params):
    """Flat view: per layer, the weight matrix row-major, then the bias."""
    parts = []
    for W, b in zip(params.weights, params.biases):
        parts.append(W.ravel())
        parts.append(b)
    return np.concatenate(parts)


def unflatten(vec, widths, activation="tanh"):
    vec = np.asarray(vec, dtype=float)
    if vec.size != param_count(widths):
        raise ContractViolation("flat vector length does not match widths")
    weights, biases = [], []
    k = 0
    for din, dout in zip(widths[:-1], widths[1:]):
        weights.append(vec[k : k + dout * din].reshape(dout, din).copy())
        k += dout * din
        biases.append(vec[k : k + dout].copy())
        k += dout
    return MlpParams(weights, biases, activation)


# -- batched kernels --------------------------------------------------------


def forward_batch(params, emb):
    """Values at a batch of embedded points; returns (u, cache).

    The cache holds every layer's activations and first derivative factors
    for ``vjp_value_batch``; callers that need values only use
    ``eval_batch``, which keeps neither.
    """
    act = ACTIVATIONS[params.activation]
    a = np.asarray(emb, dtype=float)
    acts, d1s = [a], []
    for W, b in zip(params.weights[:-1], params.biases[:-1]):
        z = a @ W.T + b
        a, d1 = act(z, 1)
        acts.append(a)
        d1s.append(d1)
    u = acts[-1] @ params.weights[-1].T + params.biases[-1]
    return u[:, 0], (acts, d1s)


def forward_jvp_batch(params, emb, emb_tangent):
    """Values and tangent-rail directional derivatives at a batch.

    Returns (u, du, cache); the cache holds everything the reverse sweep
    needs (activations, both derivative factors, and the tangent rails).
    """
    act = ACTIVATIONS[params.activation]
    a = np.asarray(emb, dtype=float)
    t = np.asarray(emb_tangent, dtype=float)
    acts, rails, d1s, d2s, pre_rails = [a], [t], [], [], []
    for W, b in zip(params.weights[:-1], params.biases[:-1]):
        z = a @ W.T + b
        s = t @ W.T
        a, d1, d2 = act(z, 2)
        t = d1 * s
        acts.append(a)
        rails.append(t)
        d1s.append(d1)
        d2s.append(d2)
        pre_rails.append(s)
    WL = params.weights[-1]
    u = acts[-1] @ WL.T + params.biases[-1]
    du = rails[-1] @ WL.T
    return u[:, 0], du[:, 0], (acts, rails, d1s, d2s, pre_rails)


def vjp_value_batch(params, cache, seed_value):
    """Gradient of sum_i seed_value[i] * u_i wrt the flat parameters."""
    acts, d1s = cache
    zbar = np.asarray(seed_value, dtype=float)[:, None]
    grads_w, grads_b = [], []
    W = params.weights[-1]
    grads_w.append(zbar.T @ acts[-1])
    grads_b.append(zbar.sum(axis=0))
    abar = zbar @ W
    for layer in range(len(params.weights) - 2, -1, -1):
        zbar = abar * d1s[layer]
        grads_w.append(zbar.T @ acts[layer])
        grads_b.append(zbar.sum(axis=0))
        abar = zbar @ params.weights[layer]
    return _pack_grads(grads_w, grads_b)


def vjp_jvp_batch(params, cache, seed_value, seed_tangent):
    """Gradient of sum_i (seed_value[i]*u_i + seed_tangent[i]*du_i).

    Reverse sweep over the augmented (primal, tangent) computation: the
    tangent-rail adjoints contribute through the second derivative of the
    activation, which is what makes gradients of directional derivatives
    exact.
    """
    acts, rails, d1s, d2s, pre_rails = cache
    zbar = np.asarray(seed_value, dtype=float)[:, None]
    sbar = np.asarray(seed_tangent, dtype=float)[:, None]
    grads_w, grads_b = [], []
    W = params.weights[-1]
    grads_w.append(zbar.T @ acts[-1] + sbar.T @ rails[-1])
    grads_b.append(zbar.sum(axis=0))
    abar = zbar @ W
    tbar = sbar @ W
    for layer in range(len(params.weights) - 2, -1, -1):
        zbar = abar * d1s[layer] + tbar * d2s[layer] * pre_rails[layer]
        sbar = tbar * d1s[layer]
        grads_w.append(zbar.T @ acts[layer] + sbar.T @ rails[layer])
        grads_b.append(zbar.sum(axis=0))
        abar = zbar @ params.weights[layer]
        tbar = sbar @ params.weights[layer]
    return _pack_grads(grads_w, grads_b)


def _pack_grads(grads_w, grads_b):
    parts = []
    for gW, gb in zip(reversed(grads_w), reversed(grads_b)):
        parts.append(gW.ravel())
        parts.append(gb)
    return np.concatenate(parts)


def eval_batch(params, x, theta, embedding=DEFAULT_EMBEDDING):
    """Network values at the phase points (x, theta), values only.

    Works through ``ROW_BLOCK`` rows at a time, embedding and evaluating
    each block into one preallocated output, so its working set stays
    bounded by the block size.  Rows are independent, so every value is
    the same arithmetic as in ``forward_batch``.
    """
    x = np.atleast_2d(np.asarray(x, dtype=float))
    theta = np.atleast_1d(np.asarray(theta, dtype=float))
    act = ACTIVATIONS[params.activation]
    u = np.empty(theta.shape[0])
    for lo in range(0, u.shape[0], ROW_BLOCK):
        hi = lo + ROW_BLOCK
        a = embedding.embed(x[lo:hi], theta[lo:hi])
        for W, b in zip(params.weights[:-1], params.biases[:-1]):
            (a,) = act(a @ W.T + b, 0)
        u[lo:hi] = (a @ params.weights[-1].T + params.biases[-1])[:, 0]
    return u


# -- single-point operations -------------------------------------------------


def evaluate(params, point, embedding=DEFAULT_EMBEDDING):
    """Network value at one phase point."""
    if params.weights[0].shape[1] != embedding.dim:
        raise ContractViolation("embedding dimension does not match input width")
    return float(eval_batch(params, point.x[None, :], [point.theta], embedding)[0])


def eval_with_spatial_directional(params, point, direction, embedding=DEFAULT_EMBEDDING):
    """Value and spatial directional derivative along a unit direction."""
    direction = np.asarray(direction, dtype=float)
    if abs(np.hypot(direction[0], direction[1]) - 1.0) > EPS_UNIT:
        raise ContractViolation("direction must be a unit vector")
    if params.weights[0].shape[1] != embedding.dim:
        raise ContractViolation("embedding dimension does not match input width")
    emb = embedding.embed(point.x[None, :], [point.theta])
    tan = embedding.tangent(direction[None, :])
    u, du, _ = forward_jvp_batch(params, emb, tan)
    return float(u[0]), float(du[0])


# -- tape reference path ------------------------------------------------------


def tape_program(params):
    """Node-building closure evaluating the network on a tape.

    Parameter slots follow the flat-vector order, so a reverse sweep over
    the tape lines up with ``flatten``.
    """

    def program(tape, in_vars):
        if params.activation != "tanh":
            raise ContractViolation("the tape path supports tanh networks")
        slot = 0
        a = list(in_vars)
        n_layers = len(params.weights)
        for layer, (W, b) in enumerate(zip(params.weights, params.biases)):
            dout, din = W.shape
            wvars = [
                [tape.param(slot + r * din + c, W[r, c]) for c in range(din)]
                for r in range(dout)
            ]
            slot += dout * din
            bvars = [tape.param(slot + r, b[r]) for r in range(dout)]
            slot += dout
            z = [tape.affine(wvars[r], a, bvars[r]) for r in range(dout)]
            a = z if layer == n_layers - 1 else [zi.tanh() for zi in z]
        return a[0]

    return program


def tape_eval_with_directional(params, point, direction, embedding=DEFAULT_EMBEDDING):
    """Single-point (value, directional, tape) via the scalar tape engine."""
    emb = embedding.embed(point.x[None, :], [point.theta])[0]
    tan = embedding.tangent(np.asarray(direction, dtype=float)[None, :])[0]
    tape = autodiff.Tape()
    out = autodiff.record_forward(tape, emb, tan, tape_program(params))
    return out.primal, out.tangent, tape


# -- checkpoint io ------------------------------------------------------------


def save_params(params, path):
    """Checkpoint: magic, one JSON header line, then little-endian float64."""
    header = {"widths": list(params.widths), "activation": params.activation}
    with open(path, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC + b"\n")
        fh.write(json.dumps(header).encode() + b"\n")
        fh.write(flatten(params).astype("<f8").tobytes())


def load_params(path):
    with open(path, "rb") as fh:
        magic = fh.readline().strip()
        if magic != CHECKPOINT_MAGIC:
            raise ContractViolation(f"not a parameter checkpoint: {path}")
        header = json.loads(fh.readline().decode())
        flat = np.frombuffer(fh.read(), dtype="<f8")
    return unflatten(flat, tuple(header["widths"]), header["activation"])

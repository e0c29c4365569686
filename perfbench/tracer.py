"""In-memory spans around the public functions of each solver module.

The wrappers are installed from outside the package: ``kinetic_ops``,
``lagrangian``, ``uzawa``, ``cli`` and ``config`` resolve the functions they
call through module attributes (or class attributes, or the
``network.ACTIVATIONS`` table) at call time, so replacing those attributes
puts a span on every call without touching the program.

A span is ``[name, start, end, parent, step, flop, bytes, rows]``.  ``step``
is the phase the span ran in: ``("inner", outer, inner)`` for one inner
optimizer step (all spans of one step share it), ``("outer", k)`` for the
bookkeeping after inner loop ``k``, and ``("setup",)``, ``("run",)``,
``("emit",)``, ``("verify",)`` otherwise.  Spans stay in memory until
:meth:`Tracer.dump`.
"""

from __future__ import annotations

import json
import statistics
from time import perf_counter

NAME, START, END, PARENT, STEP, FLOP, BYTES, ROWS = range(8)

# Matmul passes per affine layer of each network kernel: the primal rail,
# plus the tangent rail, plus weight-gradient and input-adjoint products.
_KERNEL_PASSES = {
    "forward_batch": 1,
    "forward_jvp_batch": 2,
    "vjp_value_batch": 2,
    "vjp_jvp_batch": 4,
}

# Callers whose forward_batch runs on the frozen inflow-boundary nodes.
_BOUNDARY_CALLERS = {
    "lagrangian.assemble_with_gradient",
    "lagrangian.assemble",
    "uzawa.boundary_residual",
    "uzawa.multiplier_update",
}
_WRITERS = {
    "diagnostics_io.emit_metrics",
    "diagnostics_io.emit_manifest",
    "diagnostics_io.emit_grid",
    "network.save_params",
    "phase_space.dump_quadrature_csv",
}
_BUILDERS = {
    "presets.expand_preset",
    "config.build_problem",
    "config.build_quadrature_set",
    "config.build_network",
    "config.build_uzawa_config",
    "config.build_lagrangian_config",
}
_IDENTITY_CHECKS = {
    "linear_oracle.residual_identity_gap",
    "linear_oracle.recursion_identity_gap",
    "linear_oracle.telescoping_check",
}


def _kernel_work(kind):
    """Computed matmul FLOPs and operand bytes of one network kernel call.

    Each affine layer d_in -> d_out over n rows is one (n, d_in) x (d_in,
    d_out) product per pass: 2*n*d_in*d_out FLOPs and 8*(n*d_in + d_in*d_out
    + n*d_out) bytes of float64 operands.  Computed from widths and rows,
    not measured; cache traffic is not counted.
    """
    passes = _KERNEL_PASSES[kind]

    def count(args):
        params, rows = args[0], len(args[-1])
        widths = params.widths
        flop = nbytes = 0
        for din, dout in zip(widths[:-1], widths[1:]):
            flop += 2 * rows * din * dout
            nbytes += 8 * (rows * din + din * dout + rows * dout)
        return passes * flop, passes * nbytes, rows

    return count


class Tracer:
    """Span recorder; one per traced process."""

    def __init__(self):
        self.spans = []
        self.step = ("setup",)
        self.step_bounds = []  # (outer, inner, start, end) per inner step
        self._stack = []
        self._outer = -1
        self._step_start = 0.0
        self.enabled = True

    def wrap(self, owner, attr, name, count=None, enter=None, leave=None):
        table = isinstance(owner, dict)
        fn = owner[attr] if table else getattr(owner, attr)
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            stack = tracer._stack
            work = count(args) if count else (0, 0, 0)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, tracer.step, *work]
            stack.append(len(tracer.spans))
            tracer.spans.append(span)
            span[START] = perf_counter()
            if enter:
                enter(span)
            try:
                return fn(*args, **kwargs)
            finally:
                span[END] = perf_counter()
                stack.pop()
                if leave:
                    leave(span)

        if table:
            owner[attr] = traced
        else:
            setattr(owner, attr, traced)

    # -- phase tracking --------------------------------------------------

    def _set(self, step):
        def hook(span):
            self.step = step

        return hook

    def _inner_enter(self, span):
        self._outer += 1
        self.step = ("inner", self._outer, 0)
        self._step_start = span[START]

    def _inner_leave(self, span):
        self.step = ("outer", self._outer)

    def _optimizer_leave(self, span):
        if self.step[0] != "inner":
            return
        outer, inner = self.step[1], self.step[2]
        self.step_bounds.append((outer, inner, self._step_start, span[END]))
        self._step_start = span[END]
        self.step = ("inner", outer, inner + 1)

    def install(self, pkg):
        """Wrap the public functions of every solver module in ``pkg``."""
        net, ko, ps, lg = pkg.network, pkg.kinetic_ops, pkg.phase_space, pkg.lagrangian
        uz, dio, lo = pkg.uzawa, pkg.diagnostics_io, pkg.linear_oracle
        for kind in _KERNEL_PASSES:
            self.wrap(net, kind, f"network.{kind}", count=_kernel_work(kind))
        for act in list(net.ACTIVATIONS):
            self.wrap(net.ACTIVATIONS, act, "network.activation")
        for owner, attr, name in (
            (net, "unflatten", "network.unflatten"),
            (net, "save_params", "network.save_params"),
            (ko, "blocked_terms", "kinetic_ops.blocked_terms"),
            (ko, "sample_terms", "kinetic_ops.sample_terms"),
            (ko.ScatteringKernel, "rows", "kinetic_ops.kernel_rows"),
            (ko.ScatteringKernel, "matrix", "kinetic_ops.kernel_matrix"),
            (ko.SourceAndInflow, "inflow", "kinetic_ops.inflow"),
            (ps, "mc_interior", "phase_space.mc_interior"),
            (ps, "build_quadrature", "phase_space.build_quadrature"),
            (ps, "dump_quadrature_csv", "phase_space.dump_quadrature_csv"),
            (uz, "boundary_residual", "uzawa.boundary_residual"),
            (uz, "multiplier_update", "uzawa.multiplier_update"),
            (pkg.presets, "expand_preset", "presets.expand_preset"),
            (lo.LinearTrialSpace, "__post_init__", "linear_oracle.trial_space"),
            (lo, "run_uzawa_oracle", "linear_oracle.run_uzawa_oracle"),
            (lo, "strong_regime_constant", "linear_oracle.strong_regime_constant"),
        ):
            self.wrap(owner, attr, name)
        for module, names in (
            (lg, ("subsample", "assemble", "assemble_with_gradient")),
            (dio, ("scalar_flux", "angular_slice", "discrete_norms")),
            (dio, ("emit_metrics", "emit_manifest", "emit_grid")),
            (lo, ("residual_identity_gap", "recursion_identity_gap", "telescoping_check")),
            (pkg.config, ("build_problem", "build_quadrature_set", "build_network")),
            (pkg.config, ("build_uzawa_config", "build_lagrangian_config")),
        ):
            for attr in names:
                self.wrap(module, attr, f"{module.__name__.rsplit('.', 1)[1]}.{attr}")
        self.wrap(uz.Adam, "step", "uzawa.Adam.step", leave=self._optimizer_leave)
        self.wrap(
            uz, "inner_minimize", "uzawa.inner_minimize", enter=self._inner_enter, leave=self._inner_leave
        )
        self.wrap(uz, "run", "uzawa.run", enter=self._set(("run",)), leave=self._set(("emit",)))
        self.wrap(
            lo, "verification_suite", "linear_oracle.verification_suite", enter=self._set(("verify",))
        )

    def dump(self, path):
        """Write every span as one JSON document (called once, at the end)."""
        fields = ["name", "start", "end", "parent", "step", "flop", "bytes", "rows"]
        with open(path, "w") as fh:
            json.dump({"fields": fields, "spans": self.spans}, fh)

    # -- per-layer metrics ---------------------------------------------------

    def layer_metrics(self, n_outer):
        """Per-layer metrics as {name: (value, unit)}; see README.md for definitions."""
        spans = self.spans
        child = [0.0] * len(spans)
        for s in spans:
            if s[PARENT] >= 0:
                child[s[PARENT]] += s[END] - s[START]
        self_s = [s[END] - s[START] - c for s, c in zip(spans, child)]
        n_steps = len(self.step_bounds)

        def where(names=None, phase=None):
            return [
                i
                for i, s in enumerate(spans)
                if (names is None or s[NAME] in names) and (phase is None or s[STEP][0] in phase)
            ]

        def parent(i):
            p = spans[i][PARENT]
            return spans[p][NAME] if p >= 0 else ""

        def per_step(value):
            return value / n_steps if n_steps else 0.0

        def per_outer(value):
            return value / n_outer if n_steps else 0.0

        def self_ms(name):
            return per_step(1e3 * sum(self_s[i] for i in where({name}, {"inner"})))

        def rows(name):
            return per_step(sum(spans[i][ROWS] for i in where({name}, {"inner"})))

        def incl_ms(names, phase=None):
            return 1e3 * sum(spans[i][END] - spans[i][START] for i in where(names, phase))

        kernels = {f"network.{k}" for k in _KERNEL_PASSES}
        top_kernels = [i for i in where(kernels, {"inner"}) if parent(i) not in kernels]
        kernel_s = sum(spans[i][END] - spans[i][START] for i in top_kernels)
        flop = sum(spans[i][FLOP] for i in top_kernels)
        nbytes = sum(spans[i][BYTES] for i in top_kernels)

        matrix = where({"kinetic_ops.kernel_matrix"}, {"inner"})
        misses = {spans[i][PARENT] for i in where({"kinetic_ops.kernel_rows"}, {"inner"})}
        hit_ratio = sum(1 for i in matrix if i not in misses) / len(matrix) if matrix else 0.0

        step_ms = [1e3 * (end - start) for _, _, start, end in self.step_bounds]
        covered = {}
        for i in where(None, {"inner"}):
            if parent(i) == "uzawa.inner_minimize":
                step = spans[i][STEP]
                covered[step] = covered.get(step, 0.0) + spans[i][END] - spans[i][START]
        uncovered_ms = sum(
            1e3 * (end - start - covered.get(("inner", o, m), 0.0)) for o, m, start, end in self.step_bounds
        )
        outer_ms = incl_ms({"uzawa.run"}) - incl_ms({"uzawa.inner_minimize"})
        boundary_fwd = sum(
            1 for i in where({"network.forward_batch"}, {"inner", "outer"}) if parent(i) in _BOUNDARY_CALLERS
        )
        grid_rows = sum(
            spans[i][ROWS]
            for i in where({"network.forward_batch"}, {"emit"})
            if parent(i) in ("diagnostics_io.scalar_flux", "diagnostics_io.angular_slice")
        )
        inner_minimize_self = 1e3 * sum(self_s[i] for i in where({"uzawa.inner_minimize"}))

        ms, count = "ms", "count"
        return {
            "network.forward_jvp_batch.self_ms": (self_ms("network.forward_jvp_batch"), ms),
            "network.forward_jvp_batch.rows": (rows("network.forward_jvp_batch"), count),
            "network.vjp_jvp_batch.self_ms": (self_ms("network.vjp_jvp_batch"), ms),
            "network.forward_batch.self_ms": (self_ms("network.forward_batch"), ms),
            "network.forward_batch.rows": (rows("network.forward_batch"), count),
            "network.vjp_value_batch.self_ms": (self_ms("network.vjp_value_batch"), ms),
            "network.activation.self_ms": (self_ms("network.activation"), ms),
            "network.unflatten.self_ms": (self_ms("network.unflatten"), ms),
            "network.gflop_computed": (per_step(flop) / 1e9, "GFLOP"),
            "network.mbytes_computed": (per_step(nbytes) / 1e6, "MB"),
            "network.gflops": (flop / kernel_s / 1e9 if kernel_s else 0.0, "GFLOP/s"),
            "kinetic_ops.blocked_terms.self_ms": (self_ms("kinetic_ops.blocked_terms"), ms),
            "kinetic_ops.sample_terms.self_ms": (self_ms("kinetic_ops.sample_terms"), ms),
            "kinetic_ops.kernel_rows.self_ms": (self_ms("kinetic_ops.kernel_rows"), ms),
            "kinetic_ops.kernel_matrix.hit_ratio": (hit_ratio, "ratio"),
            "kinetic_ops.inflow.calls": (per_step(len(where({"kinetic_ops.inflow"}, {"inner"}))), count),
            "kinetic_ops.inflow.self_ms": (self_ms("kinetic_ops.inflow"), ms),
            "phase_space.mc_interior.self_ms": (self_ms("phase_space.mc_interior"), ms),
            "phase_space.build_quadrature.ms": (incl_ms({"phase_space.build_quadrature"}, {"setup"}), ms),
            "lagrangian.subsample.self_ms": (self_ms("lagrangian.subsample"), ms),
            "lagrangian.assemble_with_gradient.self_ms": (self_ms("lagrangian.assemble_with_gradient"), ms),
            "lagrangian.assemble.ms_per_outer": (per_outer(incl_ms({"lagrangian.assemble"}, {"outer"})), ms),
            "uzawa.inner_step_ms.p50": (_percentile(step_ms, 50), ms),
            "uzawa.inner_step_ms.p95": (_percentile(step_ms, 95), ms),
            "uzawa.inner_step_ms.n": (n_steps, count),
            "uzawa.Adam.step.self_ms": (self_ms("uzawa.Adam.step"), ms),
            "uzawa.inner_minimize.self_ms": (per_step(inner_minimize_self), ms),
            "uzawa.outer_ms": (per_outer(outer_ms), ms),
            "uzawa.boundary_forward_per_outer": (per_outer(boundary_fwd), count),
            "uzawa.inner_step.uncovered_ms": (per_step(uncovered_ms), ms),
            "diagnostics_io.scalar_flux.ms": (incl_ms({"diagnostics_io.scalar_flux"}, {"emit"}), ms),
            "diagnostics_io.angular_slice.ms": (incl_ms({"diagnostics_io.angular_slice"}, {"emit"}), ms),
            "diagnostics_io.discrete_norms.ms": (incl_ms({"diagnostics_io.discrete_norms"}, {"emit"}), ms),
            "diagnostics_io.write.ms": (incl_ms(_WRITERS, {"emit"}), ms),
            "diagnostics_io.grid_rows": (grid_rows, count),
            "config.build.ms": (incl_ms(_BUILDERS, {"setup"}), ms),
            "linear_oracle.trial_space.ms": (incl_ms({"linear_oracle.trial_space"}), ms),
            "linear_oracle.run_uzawa_oracle.ms": (incl_ms({"linear_oracle.run_uzawa_oracle"}), ms),
            "linear_oracle.identity_checks.ms": (incl_ms(_IDENTITY_CHECKS), ms),
            "linear_oracle.strong_regime_constant.ms": (
                incl_ms({"linear_oracle.strong_regime_constant"}),
                ms,
            ),
        }


def _percentile(values, pct):
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]

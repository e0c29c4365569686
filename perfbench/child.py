"""One measured run of one workload, in a process of its own.

Usage: python3 perfbench/child.py --workload NAME --seed N --out DIR [--trace SPANS.json]

Prints one JSON object on its last stdout line: the run's end-to-end
numbers, its correctness gates and, when traced, its per-layer metrics.
Each run gets its own process so that peak resident memory is the run's
own.  BLAS pools are pinned to one thread before numpy is imported.
"""

import os

for _var in (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import workloads  # noqa: E402

FD_STEP = 1e-5
FD_TOLERANCE = 1e-6


def _import_package(traced):
    import uzawa_transport as pkg
    from uzawa_transport import cli, config, diagnostics_io, kinetic_ops, lagrangian  # noqa: F401
    from uzawa_transport import linear_oracle, network, phase_space, presets, uzawa  # noqa: F401

    tracer = None
    if traced:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install(pkg)
    return pkg, tracer


def _output_bytes(out_dir):
    return sum(os.path.getsize(os.path.join(out_dir, f)) for f in os.listdir(out_dir))


def _fd_gate(pkg, inputs, seed):
    """Directional central difference of assemble_with_gradient on the first batch."""
    import numpy as np

    lg, net, ps = pkg.lagrangian, pkg.network, pkg.phase_space
    problem, quad, params0, _, lagr_cfg, _ = inputs
    if quad.scheme == ps.MONTE_CARLO and lagr_cfg.resample:
        n = lagr_cfg.batch_interior or len(quad.interior)
        interior = ps.mc_interior(quad.domain, n, [seed, 0, 0])
        batch = ps.QuadratureSet(
            interior, quad.angular, quad.boundary, quad.scheme, quad.seeds, quad.domain
        )
    else:
        batch = lg.subsample(quad, lagr_cfg.batch_interior, [seed, 0, 0])
    rng = np.random.default_rng([seed, 1])
    multiplier = lg.MultiplierField(rng.standard_normal(len(quad.boundary)), quad.boundary)
    theta = net.flatten(params0)
    direction = rng.standard_normal(theta.size)
    direction /= np.linalg.norm(direction)

    def value(vec):
        params = net.unflatten(vec, params0.widths, params0.activation)
        return lg.assemble(params, multiplier, batch, problem, lagr_cfg).value

    _, grad = lg.assemble_with_gradient(params0, multiplier, batch, problem, lagr_cfg)
    exact = float(grad @ direction)
    fd = (value(theta + FD_STEP * direction) - value(theta - FD_STEP * direction)) / (2 * FD_STEP)
    return abs(fd - exact) / abs(exact)


def _untrained_l2_rel(pkg, inputs, config):
    """Relative L2 error of the initial network against the manufactured solution."""
    import numpy as np

    problem, quad, params0, *_ = inputs
    _, reference = pkg.config.build_problem(config)
    norms = pkg.diagnostics_io.discrete_norms(params0, quad, problem, reference)
    ref = reference.value(quad.interior.x, quad.interior.theta)
    ref_norm = float(np.sqrt(quad.interior.weight @ np.asarray(ref) ** 2))
    return float(norms["l2_interior"]) / ref_norm


def _training(args, t_enter):
    pkg, tracer = _import_package(args.trace)
    marks = {}
    solve = pkg.uzawa.run

    def timed_run(problem, quad, params0, config, lagr_cfg, seed=0):
        marks["inputs"] = (problem, quad, params0, config, lagr_cfg, seed)
        marks["start"] = time.perf_counter()
        try:
            return solve(problem, quad, params0, config, lagr_cfg, seed=seed)
        finally:
            marks["end"] = time.perf_counter()

    pkg.uzawa.run = timed_run
    preset, overrides = workloads.training_overrides(args.workload, args.seed)
    config = pkg.presets.expand_preset(preset, overrides)
    with contextlib.redirect_stdout(io.StringIO()):
        code, _ = pkg.cli.run_experiment(config, args.out)
    t_return = time.perf_counter()
    if tracer:
        tracer.enabled = False
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    n_steps = workloads.N_OUTER * workloads.N_INNER
    result = {
        "setup_s": marks["start"] - t_enter,
        "step_ms": 1e3 * (marks["end"] - marks["start"]) / n_steps,
        "emit_s": t_return - marks["end"],
        "peak_rss_mb": peak_rss_mb,
    }
    gates = {"exit_code_0": code == 0}
    with open(os.path.join(args.out, "manifest.json")) as fh:
        final = json.load(fh)["final_metrics"]
    with open(os.path.join(args.out, "metrics.csv"), "rb") as fh:
        raw = fh.read()
    rows = raw.decode().strip().splitlines()[1:]
    gates["metrics_rows"] = len(rows) == n_steps and all(
        math.isfinite(float(v)) for row in rows for v in row.split(",")
    )
    gates["fd_gradient"] = _fd_gate(pkg, marks["inputs"], args.seed) <= FD_TOLERANCE
    if "l2_error_rel" in final:
        untrained = _untrained_l2_rel(pkg, marks["inputs"], config)
        gates["l2_below_untrained"] = final["l2_error_rel"] < untrained
    layers = None
    if tracer:
        layers = tracer.layer_metrics(workloads.N_OUTER)
        layers.update(
            {
                "boundary_residual": (final["boundary_residual"], "1"),
                "loss_pde": (final["loss_pde"], "1"),
                "l2_error_rel": (final.get("l2_error_rel", 0.0), "1"),
                "verify_s": (0.0, "s"),
                "diagnostics_io.bytes_written": (_output_bytes(args.out), "B"),
                "linear_oracle.checks_passed": (0, "count"),
            }
        )
        tracer.dump(args.trace)
    return {
        "end_to_end": result,
        "layers": layers,
        "gates": gates,
        "fingerprint": hashlib.sha256(raw).hexdigest(),
    }


def _oracle(args, t_enter):
    """verification_suite() called directly, then the oracle-mode outputs.

    The emission mirrors what ``run_experiment`` writes in oracle mode (the
    check lines and the manifest), with check results as plain bools.
    """
    pkg, tracer = _import_package(args.trace)
    config = pkg.presets.expand_preset(workloads.ORACLE)
    t_start = time.perf_counter()
    checks = pkg.linear_oracle.verification_suite(n_iter=workloads.ORACLE_N_ITER)
    t_end = time.perf_counter()
    passed = [bool(ok) for _, ok, _ in checks]
    with contextlib.redirect_stdout(io.StringIO()):
        for (name, ok, detail), good in zip(checks, passed):
            print(f"[{'PASS' if good else 'FAIL'}] {name}" + (f" ({detail})" if detail else ""))
        manifest = pkg.diagnostics_io.RunManifest(
            config=config.to_flat(),
            version=pkg.__version__,
            wall_clock=t_end - t_start,
            final_metrics={"checks_passed": all(passed)},
        )
        pkg.diagnostics_io.emit_manifest(os.path.join(args.out, "manifest.json"), manifest)
    t_return = time.perf_counter()
    if tracer:
        tracer.enabled = False
    result = {
        "setup_s": t_start - t_enter,
        "step_ms": 1e3 * (t_end - t_start) / workloads.ORACLE_SOLVES,
        "emit_s": t_return - t_end,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    gates = {"all_14_checks_pass": len(passed) == 14 and all(passed)}
    report = json.dumps([[name, bool(ok), detail] for name, ok, detail in checks]).encode()
    layers = None
    if tracer:
        layers = tracer.layer_metrics(workloads.N_OUTER)
        layers.update(
            {
                "boundary_residual": (0.0, "1"),
                "loss_pde": (0.0, "1"),
                "l2_error_rel": (0.0, "1"),
                "verify_s": (t_end - t_start, "s"),
                "diagnostics_io.bytes_written": (_output_bytes(args.out), "B"),
                "linear_oracle.checks_passed": (sum(passed), "count"),
            }
        )
        tracer.dump(args.trace)
    return {
        "end_to_end": result,
        "layers": layers,
        "gates": gates,
        "fingerprint": hashlib.sha256(report).hexdigest(),
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True, help="fresh, empty output directory")
    parser.add_argument("--trace", default=None, help="record spans and write them to this file")
    args = parser.parse_args(argv)
    t_enter = time.perf_counter()
    if args.workload == workloads.ORACLE:
        result = _oracle(args, t_enter)
    else:
        result = _training(args, t_enter)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

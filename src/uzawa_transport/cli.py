"""Command-line entry point.

Subcommands: ``run <config>``, ``preset <name>``, ``list-presets``, and
``verify`` (shorthand for the oracle-verify preset).  Exit codes: 0
success, 1 failed verification, 2 configuration error, ``ContractViolation``
or out of memory (numpy's message names the allocation), 3 numerical abort
or ``IllConditionedSystem`` (with its condition estimate), 4 I/O error.
``--threads N`` pins the BLAS pools right after argument parsing, before
numpy loads (every heavy import is deferred past that point);
``--threads 1`` makes runs bit-for-bit reproducible.
"""

from __future__ import annotations

import argparse
import os
import sys
import time

ENV_OUT_DIR = "UZAWA_TRANSPORT_OUT"
_THREAD_VARS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)


def _build_parser():
    # --threads is accepted before or after the subcommand
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--threads",
        type=int,
        default=argparse.SUPPRESS,
        help="BLAS thread count (1 guarantees bitwise reproducibility)",
    )
    parser = argparse.ArgumentParser(
        prog="uzawa-transport",
        description="Mesh-free transport solver with multiplier-enforced inflow data",
        parents=[common],
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser(
        "run", parents=[common], help="run an experiment from a config file or manifest"
    )
    p_run.add_argument("config_path")
    p_run.add_argument("--out", default=None, help="output directory")

    p_preset = sub.add_parser("preset", parents=[common], help="run a named preset")
    p_preset.add_argument("name")
    p_preset.add_argument("--out", default=None, help="output directory")
    p_preset.add_argument("--seed", type=int, default=None, help="override the run seed")
    p_preset.add_argument(
        "--override",
        action="append",
        default=[],
        metavar="KEY=VALUE",
        help="override a config key (repeatable)",
    )

    sub.add_parser("list-presets", parents=[common], help="list available presets")
    p_verify = sub.add_parser("verify", parents=[common], help="run the oracle identity checks")
    p_verify.add_argument("--out", default=None, help="output directory")
    return parser


def _resolve_out_dir(explicit, config):
    if explicit:
        return explicit
    configured = config["outputs.directory"]
    if configured:
        return configured
    name = config["preset"] or "run"
    base = os.environ.get(ENV_OUT_DIR, os.path.join(os.getcwd(), "runs"))
    return os.path.join(base, name)


def _final_metrics(state, quad, reference):
    import numpy as np

    from . import network

    last = state.outer_history[-1]
    metrics = {
        "loss_total": last.loss_parts.value,
        "loss_pde": last.loss_parts.pde,
        "loss_boundary": last.loss_parts.boundary_penalty,
        "loss_multiplier": last.loss_parts.multiplier_term,
        "boundary_residual": last.boundary_residual,
        "initial_boundary_residual": state.initial_boundary_residual,
        "lambda_norm": last.lambda_norm,
    }
    if reference is not None:
        x, theta, w = quad.interior.x, quad.interior.theta, quad.interior.weight
        ref = np.asarray(reference.value(x, theta))
        err = network.eval_batch(state.params, x, theta) - ref
        metrics["l2_error"] = float(np.sqrt(w @ err**2))
        metrics["l2_error_rel"] = metrics["l2_error"] / float(np.sqrt(w @ ref**2))
    return metrics


def _write_manifest(out_dir, config, wall_clock, final):
    from . import __version__, diagnostics_io

    manifest = diagnostics_io.RunManifest(config.to_flat(), __version__, wall_clock, final)
    diagnostics_io.emit_manifest(os.path.join(out_dir, "manifest.json"), manifest)


def _emit_train_outputs(out_dir, config, state, quad, reference, wall_clock):
    from . import diagnostics_io, network, phase_space

    diagnostics_io.emit_metrics(
        os.path.join(out_dir, "metrics.csv"), diagnostics_io.metrics_rows(state)
    )
    final = _final_metrics(state, quad, reference)
    _write_manifest(out_dir, config, wall_clock, final)
    if config["outputs.checkpoint"]:
        network.save_params(state.params, os.path.join(out_dir, "params.uzmlp"))
    if config["outputs.emit_quadrature"]:
        phase_space.dump_quadrature_csv(quad, os.path.join(out_dir, "quadrature.csv"))
    n = config["outputs.grid_n"]
    for entry in config["outputs.grids"]:
        name, theta = diagnostics_io.grid_output(entry)
        if theta is None:
            grid = diagnostics_io.scalar_flux(state.params, quad.angular, n, n, quad.domain)
        else:
            grid = diagnostics_io.angular_slice(state.params, theta, n, n, quad.domain)
        diagnostics_io.emit_grid(os.path.join(out_dir, name), grid)
    return final


def run_experiment(config, out_dir=None):
    """Execute one experiment; returns (exit_code, output_dir)."""
    from . import config as configmod
    from . import linear_oracle, uzawa
    from .errors import NumericalAbort

    out_dir = _resolve_out_dir(out_dir, config)
    # before any solve, so an unusable output directory exits 4 at once
    os.makedirs(out_dir, exist_ok=True)
    start = time.perf_counter()

    if config.mode == configmod.ORACLE_VERIFY:
        checks = linear_oracle.verification_suite()
        all_ok = True
        for name, ok, detail in checks:
            print(f"[{'PASS' if ok else 'FAIL'}] {name}" + (f" ({detail})" if detail else ""))
            all_ok &= ok
        _write_manifest(out_dir, config, time.perf_counter() - start, {"checks_passed": all_ok})
        return (0 if all_ok else 1), out_dir

    problem, reference = configmod.build_problem(config)
    quad = configmod.build_quadrature_set(config)
    params0 = configmod.build_network(config)
    uz_cfg = configmod.build_uzawa_config(config)
    lg_cfg = configmod.build_lagrangian_config(config)
    try:
        state = uzawa.run(problem, quad, params0, uz_cfg, lg_cfg, seed=config["seed"])
    except NumericalAbort:
        # flush a manifest naming the abort so the run is diagnosable
        _write_manifest(out_dir, config, time.perf_counter() - start, {"aborted": str(sys.exc_info()[1])})
        raise

    final = _emit_train_outputs(out_dir, config, state, quad, reference, time.perf_counter() - start)
    summary = ", ".join(
        f"{k}={final[k]:.6g}" for k in ("loss_total", "boundary_residual") if k in final
    )
    if "l2_error_rel" in final:
        summary += f", l2_error_rel={final['l2_error_rel']:.6g}"
    print(f"run complete: {summary}")
    print(f"outputs in {out_dir}")
    return 0, out_dir


def _load_config(path):
    from . import config as configmod
    from . import diagnostics_io

    if path.endswith(".json"):
        manifest = diagnostics_io.parse_manifest(path)
        return configmod.from_flat(manifest.config)
    return configmod.parse_config(path)


def main(argv=None):
    args = _build_parser().parse_args(argv)
    if getattr(args, "threads", 0) > 0:
        for var in _THREAD_VARS:
            os.environ[var] = str(args.threads)

    from .errors import ConfigError, ContractViolation, IllConditionedSystem, NumericalAbort

    try:
        if args.command == "list-presets":
            from .presets import list_presets_text

            print(list_presets_text())
            return 0
        if args.command == "verify":
            from .presets import expand_preset

            code, _ = run_experiment(expand_preset("oracle-verify"), args.out)
            return code
        if args.command == "preset":
            from .presets import expand_preset

            overrides = {}
            for item in args.override:
                if "=" not in item:
                    raise ConfigError([f"--override needs KEY=VALUE, got {item!r}"])
                key, _, value = item.partition("=")
                overrides[key.strip()] = value.strip()
            config = expand_preset(args.name, overrides, seed=args.seed)
            code, _ = run_experiment(config, args.out)
            return code
        # run
        config = _load_config(args.config_path)
        code, _ = run_experiment(config, args.out)
        return code
    except ConfigError as err:
        print("configuration error:", file=sys.stderr)
        for violation in err.violations:
            print(f"  - {violation}", file=sys.stderr)
        return 2
    except ContractViolation as err:
        print(f"configuration error:\n  - {err}", file=sys.stderr)
        return 2
    except MemoryError as err:
        print("configuration error:", file=sys.stderr)
        print(f"  - out of memory: {str(err) or 'an allocation failed'}", file=sys.stderr)
        return 2
    except (NumericalAbort, IllConditionedSystem) as err:
        print(f"numerical abort: {err}", file=sys.stderr)
        return 3
    except OSError as err:
        print(f"i/o error: {err}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())

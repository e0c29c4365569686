"""Workload table shared by the runner and the measured child process.

Each training workload is a real preset at its own problem sizes; only the
iteration counts are cut, so one run fits in a few seconds.  ``n_outer`` is
kept at 2 so the multiplier update and the outer bookkeeping run, and
``n_outer * n_inner`` is 200 so the 95th percentile of inner-step times has
ten samples beyond it.  Importing this module must not import numpy: the
runner stays light and the child pins BLAS threads before numpy loads.
"""

N_OUTER = 2
N_INNER = 100

# Oracle inner solves in one verification_suite() call: three (gamma, rho)
# pairs plus the strong-regime run, each n_iter + 1 exact solves.
ORACLE_N_ITER = 200
ORACLE_SOLVES = 4 * (ORACLE_N_ITER + 1)

TRAINING = {
    "absorb-tensor": ("example2", {}),
    "scatter-tensor": ("example3-forward", {}),
    "mc-manufactured": (
        "manufactured",
        {
            "quadrature.scheme": "monte-carlo",
            "quadrature.n_interior": 4096,
            "quadrature.n_boundary": 1024,
            "lagrangian.batch_interior": 256,
            "problem.sigma_t": 1.0,
        },
    ),
}
ORACLE = "oracle-verify"
NAMES = (*TRAINING, ORACLE)


def training_overrides(name, seed):
    """Preset name and config overrides for one seeded training run."""
    preset, extra = TRAINING[name]
    overrides = {
        **extra,
        "uzawa.n_outer": N_OUTER,
        "uzawa.n_inner": N_INNER,
        "seed": seed,
        "network.seed": seed,
        "quadrature.seed": seed,
    }
    return preset, overrides

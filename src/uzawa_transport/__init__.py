"""Mesh-free solver for stationary linear transport with inflow data
enforced by a Lagrange multiplier on the inflow boundary.

Submodules are imported lazily so the CLI can pin BLAS thread pools
before numpy loads.
"""

__version__ = "0.1.0"

_SUBMODULES = (
    "atomic_io",
    "cli",
    "config",
    "diagnostics_io",
    "errors",
    "kinetic_ops",
    "lagrangian",
    "linear_oracle",
    "network",
    "phase_space",
    "presets",
    "uzawa",
)


def __getattr__(name):
    if name in _SUBMODULES:
        import importlib

        return importlib.import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(list(globals()) + list(_SUBMODULES))

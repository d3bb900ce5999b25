"""Computational toolkit for rational de Branges-Rovnyak spaces.

The public names load their module on first access (PEP 562), so
``import hbspace`` imports no submodule and each ``hb`` subcommand
imports only the modules it runs.
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "config": ("DEFAULT_TOLERANCES", "Tolerances", "resolve_seed"),
    "extension": ("ExtensionResult", "ModelResult", "brownian_shift_symbol", "build_model",
                  "extend", "kernel_factorization_check", "mobius_normalize"),
    "factorization": ("MateResult", "boundary_order", "inner_outer", "is_nonextreme",
                      "pythagorean_mate"),
    "isometry": ("DefectReport", "annihilation_check", "defect_form", "isometry_order",
                 "rank_one_identity_check"),
    "lattice": ("SubspaceDescriptor", "classify", "is_cyclic", "ladder_spaces", "membership",
                "subspace_distance"),
    "polynomials": ("Poly", "RationalFn", "as_rational"),
    "space": ("HbSpace", "HbVector"),
}
# public name -> the module that defines it
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = [*sorted(_HOME), "__version__"]


def __getattr__(name):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})

"""Measurement laboratory for large-sieve sums over sparse moduli sets.

The package evaluates trigonometric polynomials at Farey fractions of
structured moduli (squares, primes, explicit lists), counts how those
fractions crowd together, and compares the measured sums against a
registry of bound shapes with every absolute constant set to one.  All
counting routines are exact integer computations with independent
brute-force oracles; the verify module wires both sides together.

Exports are lazy: `import sievelab` loads no submodule.  _EXPORTS names
the home submodule of each public name, and the first access to a name
(or to a submodule) imports its home and caches the value here, so a
process compiles only the modules it uses.  A value set on the package
afterwards is what `sievelab.name` returns.
"""

import importlib

_EXPORTS = {
    "arith": ("divisors", "euler_phi", "factorize", "mod_inv", "omega",
              "quad_cong_roots"),
    "bounds": ("SHAPE_NAMES", "BoundReport", "bound_shapes", "build_report",
               "crowding_shape_estimates", "farey_crowding_shape",
               "sieve_bracket", "sieve_lhs"),
    "counting": ("RationalApprox", "WindowQuery", "count_window_ap",
                 "dirichlet_approx", "k_delta", "p_alpha", "p_alpha_circular",
                 "pi_count"),
    "errors": ("CapacityError", "ConfigError", "InputError", "InvalidDeltaError",
               "InvalidRegimeError", "NotCoprimeError", "NotInvertibleError",
               "OutOfRangeError", "QuadratureError", "SequenceFileError",
               "SieveLabError"),
    "harmonic": ("gauss_sum", "gauss_sum_row", "linear_phase_integral",
                 "oscillatory_integral", "phi_hat_value", "phi_value",
                 "poisson_residual"),
    "moduli": ("FareyList", "FareySlabs", "ModuliSet", "build_moduli_set",
               "derive_subset", "enumerate_farey", "explicit_moduli",
               "moduli_from_file", "primes_up_to_set", "square_class_count",
               "square_divisor_profile", "squares_in_octave", "squares_up_to"),
    "sequences": ("CoefficientSequence", "eval_at_modulus", "eval_exp_sum",
                  "make_sequence", "sequence_from_file"),
    "verify": ("CheckResult", "run_verify"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
# submodules reachable as attributes of the package, like `sievelab.bounds`
_SUBMODULES = frozenset(_EXPORTS) | {"oracles", "util"}

__all__ = list(_HOME)


def __getattr__(name: str):
    if name in _HOME:
        value = getattr(importlib.import_module("." + _HOME[name], __name__), name)
    elif name in _SUBMODULES:
        value = importlib.import_module("." + name, __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})

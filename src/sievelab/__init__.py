"""Measurement laboratory for large-sieve sums over sparse moduli sets.

The package evaluates trigonometric polynomials at Farey fractions of
structured moduli (squares, primes, explicit lists), counts how those
fractions crowd together, and compares the measured sums against a
registry of bound shapes with every absolute constant set to one.  All
counting routines are exact integer computations with independent
brute-force oracles; the verify module wires both sides together.
"""

from .arith import (divisors, euler_phi, factorize, mod_inv, omega,
                    quad_cong_roots)
from .bounds import (SHAPE_NAMES, BoundReport, bound_shapes, build_report,
                     crowding_shape_estimates, farey_crowding_shape,
                     sieve_bracket, sieve_lhs)
from .counting import (RationalApprox, WindowQuery, count_window_ap,
                       dirichlet_approx, k_delta, p_alpha, p_alpha_circular,
                       pi_count)
from .errors import (CapacityError, ConfigError, InputError, InvalidDeltaError,
                     InvalidRegimeError, NotCoprimeError, NotInvertibleError,
                     OutOfRangeError, QuadratureError, SequenceFileError,
                     ShapeDomainError, SieveLabError)
from .harmonic import (gauss_sum, gauss_sum_row, linear_phase_integral,
                       oscillatory_integral, phi_hat_value, phi_value,
                       poisson_residual)
from .moduli import (FareyList, FareySlabs, ModuliSet, build_moduli_set,
                     derive_subset, enumerate_farey, explicit_moduli, moduli_from_file,
                     primes_up_to_set, square_class_count,
                     square_divisor_profile, squares_in_octave, squares_up_to)
from .sequences import (CoefficientSequence, eval_at_modulus, eval_exp_sum,
                        make_sequence, sequence_from_file)
from .verify import CheckResult, run_verify

__all__ = [
    "SHAPE_NAMES", "BoundReport", "CapacityError", "CheckResult",
    "CoefficientSequence", "ConfigError", "FareyList", "FareySlabs",
    "InputError",
    "InvalidDeltaError",
    "InvalidRegimeError", "ModuliSet", "NotCoprimeError", "NotInvertibleError",
    "OutOfRangeError", "QuadratureError", "RationalApprox",
    "SequenceFileError", "ShapeDomainError", "SieveLabError", "WindowQuery",
    "bound_shapes", "build_moduli_set", "build_report",
    "count_window_ap", "crowding_shape_estimates", "derive_subset",
    "dirichlet_approx", "divisors", "enumerate_farey", "euler_phi",
    "eval_at_modulus", "eval_exp_sum", "explicit_moduli",
    "farey_crowding_shape", "factorize", "gauss_sum", "gauss_sum_row",
    "k_delta", "linear_phase_integral", "make_sequence", "mod_inv",
    "moduli_from_file", "omega", "oscillatory_integral", "p_alpha",
    "p_alpha_circular", "phi_hat_value", "phi_value", "pi_count",
    "poisson_residual", "primes_up_to_set", "quad_cong_roots", "run_verify",
    "sequence_from_file", "sieve_bracket", "sieve_lhs", "square_class_count",
    "square_divisor_profile", "squares_in_octave", "squares_up_to",
]

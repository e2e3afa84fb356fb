"""Exception and warning types shared across the package.

One rule decides whose fault a failure is.  An InputError means the
caller's input is bad: an argument out of its domain, a malformed file,
a bad configuration value.  It is also a ValueError, and the command
line maps it to exit 2.  Every other SieveLabError (CapacityError,
QuadratureError) is a runtime failure on valid input, exit 1.  A shape
outside its domain is no failure: bound_shapes leaves it out.
"""


class SieveLabError(Exception):
    """Base class for all package-specific errors."""


class InputError(SieveLabError, ValueError):
    """Base class for errors the caller's input causes."""


class NotInvertibleError(InputError):
    """Raised when a modular inverse does not exist (gcd > 1)."""


class NotCoprimeError(InputError):
    """Raised when an argument required to be coprime to the modulus is not."""


class OutOfRangeError(InputError):
    """Raised when a numeric argument falls outside its documented domain."""


class InvalidDeltaError(InputError):
    """Raised when a window radius is nonpositive or exceeds 1/2."""


class InvalidRegimeError(InputError):
    """Raised when (r, z, delta) violate the admissible approximation regime."""


class CapacityError(SieveLabError):
    """Raised, before allocating, when a request is over its byte capacity."""


class QuadratureError(SieveLabError):
    """Raised when adaptive quadrature fails to meet tolerance within budget."""


class SequenceFileError(InputError):
    """Raised on a malformed or unreadable coefficient-sequence or moduli file."""


class ConfigError(InputError):
    """Raised on an invalid experiment configuration."""


class EmptyModuliWarning(UserWarning):
    """Issued when a constructed moduli set contains no elements."""

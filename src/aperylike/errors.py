"""Exception types shared across the package.

Both are numeric failures, which the CLI reports with exit code 3:
PrecisionError when a routine cannot certify its accuracy (the zeta4
series), QuadratureError when the error estimate of `beukers_integral`
misses.  Invalid input raises the built-in ValueError or
ZeroDivisionError instead, a usage error (exit code 2).
"""


class PrecisionError(ArithmeticError):
    """Raised when a numeric routine cannot certify the requested accuracy."""


class QuadratureError(PrecisionError):
    """Raised when a quadrature's error estimate misses the requested accuracy."""

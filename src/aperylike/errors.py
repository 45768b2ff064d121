"""Exception types shared across the package."""


class PoleAtCenterError(ZeroDivisionError):
    """Raised when a series expansion is requested at a pole of the function."""


class PrecisionError(ArithmeticError):
    """Raised when a numeric routine cannot certify the requested accuracy."""


class QuadratureError(PrecisionError):
    """Raised when a quadrature's error estimate misses the requested accuracy."""

"""Telescoping certificate for the catalan-family recurrence.

The kernel R_n satisfies, for every n >= 1, the exact identity

    (2n+1)^2 (2n+2)^2 p(n) R_{n+1}(t) - q(n) R_n(t)
        - (2n-1)^2 (2n)^2 p(n+1) R_{n-1}(t)  =  -S_n(t+1) - S_n(t),

where S_n(t) = s_n(t) R_n(t) and s_n is an explicit rational certificate
with a quartic numerator in t and denominator 2 (2t+n+1)(t+2n-1)(t+2n).
Multiplying by (-1)^t and summing over t >= 0 telescopes the right side to
-S_n(0) = 0, which is how the alternating kernel sums inherit the
recurrence.  This module builds s_n exactly and verifies the identity by
clearing to a common denominator and comparing the numerator with zero.

The five coefficient polynomials in n are transcribed once into the table
below; the per-n identity check is the arbiter for that transcription.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from .errors import PrecisionError
from .exact import Polynomial, RationalFunction, poly_gcd
from .hypergeom import build_kernel, f_numeric
from .sequences import recurrence_coefficients


class Certificate(NamedTuple):
    """The certificate pair (s_n, S_n = s_n R_n) for one index n >= 1."""

    n: int
    s: RationalFunction
    S: RationalFunction


def certificate_numerator_coefficients(n: int) -> list[Fraction]:
    """The five t-coefficients of the certificate numerator, ascending."""
    m = Fraction(n)
    c4 = 8 * m * (2 * m - 1) ** 2 * (20 * m**2 + 32 * m + 13)
    c3 = 2 * (
        5440 * m**6
        + 7104 * m**5
        + 912 * m**4
        - 1088 * m**3
        + 76 * m**2
        + 68 * m
        + 7
    )
    c2 = (
        44800 * m**7
        + 65600 * m**6
        + 17568 * m**5
        - 7056 * m**4
        - 1088 * m**3
        + 372 * m**2
        + 146 * m
        - 1
    )
    c1 = (2 * m + 1) * (
        34880 * m**7
        + 39328 * m**6
        - 2176 * m**5
        - 8416 * m**4
        + 964 * m**3
        + 154 * m**2
        + 58 * m
        - 13
    )
    c0 = (
        m
        * (2 * m - 1)
        * (2 * m + 1) ** 2
        * (4720 * m**5 + 6192 * m**4 + 816 * m**3 - 864 * m**2 + 69 * m + 13)
    )
    return [c0, c1, c2, c3, c4]


def certificate_denominator(n: int) -> Polynomial:
    """2 (2t+n+1) (t+2n-1) (t+2n) as a polynomial in t."""
    two_t = Polynomial([Fraction(n + 1), Fraction(2)])
    return 2 * two_t * Polynomial.linear(-(2 * n - 1)) * Polynomial.linear(-2 * n)


def build_certificate(n: int) -> Certificate:
    """Exact construction of s_n and S_n; defined for n >= 1 only."""
    if n < 1:
        raise ValueError("the telescoping certificate is defined for n >= 1")
    s = RationalFunction(
        Polynomial(certificate_numerator_coefficients(n)), certificate_denominator(n)
    )
    big_s = s * build_kernel(n).R
    return Certificate(n=n, s=s, S=big_s)


def verify_telescoping(n: int) -> bool:
    """Exact check that the weighted kernel combination telescopes to -S_n.

    The five rational terms are cleared to a common denominator (gcd-based
    lcm of the denominators, no final reduction) and the combined numerator
    is compared with the zero polynomial.  No tolerance is involved.
    """
    if n < 1:
        raise ValueError("the telescoping identity is stated for n >= 1")
    forward, middle, backward = recurrence_coefficients("catalan", n)
    r_next = build_kernel(n + 1).R
    r_cur = build_kernel(n).R
    r_prev = build_kernel(n - 1).R
    big_s = build_certificate(n).S
    shifted = big_s.shift(1)

    terms = [
        (r_next.num * forward, r_next.den),
        (r_cur.num * (-middle), r_cur.den),
        (r_prev.num * (-backward), r_prev.den),
        (shifted.num, shifted.den),
        (big_s.num, big_s.den),
    ]
    acc_num, acc_den = terms[0]
    for num, den in terms[1:]:
        g = poly_gcd(acc_den, den)
        den_extra = den // g
        acc_extra = acc_den // g
        acc_num = acc_num * den_extra + num * acc_extra
        acc_den = acc_den * den_extra
    return acc_num.is_zero


def verify_recurrence_transfer(n: int, digits: int) -> bool:
    """Numeric confirmation that the alternating sums obey the recurrence.

    Evaluates the three consecutive kernel sums and checks that the weighted
    combination vanishes to within 10^-(digits-5).  Complements the exact
    identity check along an entirely numerical route.
    """
    from mpmath import mp, mpf

    if n < 1:
        raise ValueError("the recurrence transfer is stated for n >= 1")
    if digits < 6:
        raise ValueError("digits must be at least 6")
    forward, middle, backward = recurrence_coefficients("catalan", n)
    working = digits + 10
    f_prev = f_numeric(n - 1, working)
    f_cur = f_numeric(n, working)
    f_next = f_numeric(n + 1, working)
    with mp.workdps(working):
        residual = abs(
            int(forward) * f_next - int(middle) * f_cur - int(backward) * f_prev
        )
        tolerance = mpf(10) ** (-(digits - 5))
        if residual < tolerance:
            return True
    raise PrecisionError(
        f"recurrence residual {residual} not certified below {tolerance} at n={n}"
    )

"""Telescoping certificate for the catalan-family recurrence.

The kernel R_n satisfies, for every n >= 1, the exact identity

    (2n+1)^2 (2n+2)^2 p(n) R_{n+1}(t) - q(n) R_n(t)
        - (2n-1)^2 (2n)^2 p(n+1) R_{n-1}(t)  =  -S_n(t+1) - S_n(t),

where S_n(t) = s_n(t) R_n(t) and s_n is an explicit rational certificate
with a quartic numerator in t and denominator 2 (2t+n+1)(t+2n-1)(t+2n).
Multiplying by (-1)^t and summing over t >= 0 telescopes the right side to
-S_n(0) = 0, which is how the alternating kernel sums inherit the
recurrence.  This module builds s_n exactly and verifies the identity
divided by R_n: R_n is a nonzero rational function, so the divided identity

    lead_n R_{n+1}/R_n - mid_n - back_n R_{n-1}/R_n
        + s_n(t+1) R_n(t+1)/R_n(t) + s_n(t)  =  0

holds exactly when the undivided one does.  The kernel ratios are read off
R_n's factor runs (`hypergeom.kernel_ratio`): consecutive runs overlap in
all but a few factors, so each ratio has degree at most 6 in t, and the
terms are cleared to a common denominator of low degree and the numerator
compared with zero (Petkovsek, Wilf and Zeilberger, A = B, 1996, ch. 7).

The five coefficient polynomials in n are transcribed once into the table
below; the per-n identity check is the arbiter for that transcription.
"""

from __future__ import annotations

from typing import NamedTuple

from .exact import Polynomial, RationalFunction, poly_gcd
from .hypergeom import build_kernel, kernel_ratio
from .sequences import recurrence_coefficients


class Certificate(NamedTuple):
    """The certificate pair (s_n, S_n = s_n R_n) for one index n >= 1."""

    n: int
    s: RationalFunction
    S: RationalFunction


def certificate_numerator_coefficients(n: int) -> list[int]:
    """The five t-coefficients of the certificate numerator, ascending."""
    c4 = 8 * n * (2 * n - 1) ** 2 * (20 * n**2 + 32 * n + 13)
    c3 = 2 * (
        5440 * n**6
        + 7104 * n**5
        + 912 * n**4
        - 1088 * n**3
        + 76 * n**2
        + 68 * n
        + 7
    )
    c2 = (
        44800 * n**7
        + 65600 * n**6
        + 17568 * n**5
        - 7056 * n**4
        - 1088 * n**3
        + 372 * n**2
        + 146 * n
        - 1
    )
    c1 = (2 * n + 1) * (
        34880 * n**7
        + 39328 * n**6
        - 2176 * n**5
        - 8416 * n**4
        + 964 * n**3
        + 154 * n**2
        + 58 * n
        - 13
    )
    c0 = (
        n
        * (2 * n - 1)
        * (2 * n + 1) ** 2
        * (4720 * n**5 + 6192 * n**4 + 816 * n**3 - 864 * n**2 + 69 * n + 13)
    )
    return [c0, c1, c2, c3, c4]


def certificate_denominator(n: int) -> Polynomial:
    """2 (2t+n+1) (t+2n-1) (t+2n) as a polynomial in t."""
    two_t = Polynomial([n + 1, 2])
    return 2 * two_t * Polynomial.linear(-(2 * n - 1)) * Polynomial.linear(-2 * n)


def _certificate_function(n: int) -> RationalFunction:
    """s_n as the transcribed numerator over `certificate_denominator(n)`."""
    return RationalFunction(
        Polynomial(certificate_numerator_coefficients(n)), certificate_denominator(n)
    )


def build_certificate(n: int) -> Certificate:
    """Exact construction of s_n and S_n; defined for n >= 1 only."""
    if n < 1:
        raise ValueError("the telescoping certificate is defined for n >= 1")
    s = _certificate_function(n)
    return Certificate(n=n, s=s, S=s * build_kernel(n).R)


def verify_telescoping(n: int) -> bool:
    """Exact check of the telescoping identity at n, divided by R_n:

        lead_n R_{n+1}/R_n - mid_n - back_n R_{n-1}/R_n
            + s_n(t+1) R_n(t+1)/R_n(t) + s_n(t)  =  0.

    R_n is a nonzero rational function, so this holds exactly when the
    undivided identity does.  The three kernel ratios come from the factor
    runs (`hypergeom.kernel_ratio`), where all but a few linear factors at
    the ends of the runs cancel, so every term has degree about 10 in t
    whatever n is.  The five terms are cleared to a common denominator
    (gcd-based lcm of the denominators, no final reduction) and the combined
    numerator is compared with the zero polynomial.  No tolerance is
    involved.
    """
    if n < 1:
        raise ValueError("the telescoping identity is stated for n >= 1")
    forward, middle, backward = recurrence_coefficients("catalan", n)
    up = kernel_ratio("catalan", n, dn=1)
    down = kernel_ratio("catalan", n, dn=-1)
    s = _certificate_function(n)
    shifted = s.shift(1) * kernel_ratio("catalan", n, dt=1)

    terms = [
        (up.num * forward, up.den),
        (Polynomial.constant(-middle), Polynomial.constant(1)),
        (down.num * (-backward), down.den),
        (shifted.num, shifted.den),
        (s.num, s.den),
    ]
    acc_num, acc_den = terms[0]
    for num, den in terms[1:]:
        g = poly_gcd(acc_den, den)
        den_extra = den // g
        acc_extra = acc_den // g
        acc_num = acc_num * den_extra + num * acc_extra
        acc_den = acc_den * den_extra
    return not acc_num

"""Convergence acceleration for alternating series, in exact arithmetic.

Implements the Chebyshev-polynomial acceleration scheme of Cohen, Rodriguez
Villegas and Zagier (2000) for sums sum_{k>=0} (-1)^k a_k.  When the a_k are
the moments a_k = int_0^1 x^k dmu(x) of a signed measure mu on [0, 1], the
estimate built from the first N terms is within ||mu|| / d_N of the sum,
d_N = chebyshev_scale(N) ~ (3 + sqrt 8)^N / 2.  Every 1/(k+c)^m (c > 0) is
such a moment sequence, of x^(c-1) (-log x)^(m-1) / (m-1)! dx, whose mass is
c^-m; so a linear combination of them has a mass known exactly, and
terms_for_bound turns that mass into the term count before any term is
evaluated.

The scheme is run entirely over exact rationals here: d_N is an integer with
a three-term recurrence, and the weight recursion is rational, so the output
is an exact Fraction.  Callers round once at the end.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence


def chebyshev_scale(n: int) -> int:
    """((3+sqrt8)^n + (3-sqrt8)^n) / 2, an integer (d_k = 6 d_{k-1} - d_{k-2})."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    prev, cur = 1, 3
    if n == 0:
        return 1
    for _ in range(n - 1):
        prev, cur = cur, 6 * cur - prev
    return cur


def terms_for_bound(mass: int | Fraction, digits: int) -> int:
    """The smallest N with d_N > mass * 10^digits.

    For moments of a measure of total variation at most `mass`, N terms then
    bring alternating_sum within 10^-digits of the sum.
    """
    if mass < 0:
        raise ValueError("mass must be nonnegative")
    limit = mass * 10**digits
    count, previous, current = 0, 3, 1  # d_{-1} = 3 continues the recurrence
    while current <= limit:
        count, previous, current = count + 1, current, 6 * current - previous
    return count


def alternating_sum(terms: Sequence[Fraction]) -> Fraction:
    """Accelerated estimate of sum (-1)^k terms[k] from the given prefix."""
    n = len(terms)
    if n == 0:
        return Fraction(0)
    d = chebyshev_scale(n)
    b = Fraction(-1)
    c = Fraction(-d)
    s = Fraction(0)
    for k in range(n):
        c = b - c
        s += c * terms[k]
        b = b * (2 * (k + n) * (k - n)) / ((2 * k + 1) * (k + 1))
    return s / d

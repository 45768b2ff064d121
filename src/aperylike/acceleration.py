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

The scheme is run entirely in exact arithmetic here: d_N and the weights
are integers, and the weighted terms are added in a balanced product tree, so
the output is an exact Fraction.  Callers round once at the end.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence


def chebyshev_scale(n: int) -> int:
    """((3+sqrt8)^n + (3-sqrt8)^n) / 2, an integer (d_k = 6 d_{k-1} - d_{k-2})."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    prev, cur = 3, 1  # d_{-1} = 3 continues the recurrence
    for _ in range(n):
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
    """Accelerated estimate of sum (-1)^k terms[k] from the given prefix.

    The weights b_{k+1} = b_k 2(k+N)(k-N) / ((2k+1)(k+1)) (b_0 = -1) and
    c_k = b_k - c_{k-1} (c_{-1} = -d_N) are integers, shifted Chebyshev
    coefficients; a division with a remainder raises ArithmeticError.  The
    terms c_k p_k/q_k are merged pairwise, (P1 Q2 + P2 Q1, Q1 Q2), then reduced.
    """
    n = len(terms)
    d = chebyshev_scale(n)
    b, c = -1, -d
    leaves = []
    for k, term in enumerate(terms):
        c = b - c
        leaves.append((c * term.numerator, term.denominator))
        b, rem = divmod(b * 2 * (k + n) * (k - n), (2 * k + 1) * (k + 1))
        if rem:
            raise ArithmeticError(f"Chebyshev weight b_{k + 1} is not an integer")
    while len(leaves) > 1:
        pairs = zip(leaves[::2], leaves[1::2])
        merged = [(p1 * q2 + p2 * q1, q1 * q2) for (p1, q1), (p2, q2) in pairs]
        leaves = merged + leaves[2 * len(merged):]
    p, q = leaves[0] if leaves else (0, 1)
    return Fraction(p, q * d)

"""Shared fixtures: high-precision reference values used as oracles."""

import math
import sys
from collections import Counter
from fractions import Fraction

import pytest
from mpmath import mp, mpf

from aperylike.acceleration import chebyshev_scale
from aperylike.exact import (
    Polynomial,
    RationalFunction,
    TruncatedSeries,
    horner_int,
    integer_coefficients,
)
from aperylike.hypergeom import factor_runs
from aperylike.sequences import RECURRENCES, recurrence_coefficients


def mpf_frac(q: Fraction | int, dps: int | None = None) -> mpf:
    """Convert an exact rational to mpf at the current (or given) precision."""
    q = Fraction(q)
    if dps is None:
        return mpf(q.numerator) / mpf(q.denominator)
    with mp.workdps(dps):
        return mpf(q.numerator) / mpf(q.denominator)


_stepped: dict[str, list[tuple[Fraction, Fraction]]] = {}


def stepped_pairs(family: str, n_max: int) -> list[tuple[Fraction, Fraction]]:
    """(u_k, v_k) for k = 0..n_max by one exact Fraction step at a time.

    The reference for the package's memo and product tree: it reads only the
    initial pairs and the coefficients, never the package's stored pairs.
    """
    rows = _stepped.setdefault(family, list(RECURRENCES[family].initial))
    while len(rows) <= n_max:
        k = len(rows) - 1
        lead, mid, back = recurrence_coefficients(family, k)
        (u_prev, v_prev), (u_cur, v_cur) = rows[k - 1], rows[k]
        rows.append(
            ((mid * u_cur + back * u_prev) / lead, (mid * v_cur + back * v_prev) / lead)
        )
    return rows[: n_max + 1]


def sequential_alternating_sum(terms) -> Fraction:
    """The Chebyshev estimate of sum (-1)^k terms[k] by the rational weight
    recursion of Cohen, Rodriguez Villegas and Zagier, one Fraction at a time.

    The reference for the package's integer weights and summation tree.
    """
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


# Plain Fraction-loop references for the exact core's integer kernels; they
# read only the coefficient tuples, never the package's arithmetic.


def coefficients(p: Polynomial) -> tuple[Fraction, ...]:
    """The coefficients of p, low to high, as the Fractions ints[i] / den."""
    return tuple(Fraction(c, p.den) for c in p.ints)


def naive_product(f: tuple, g: tuple) -> list[Fraction]:
    """Coefficients of f * g by the schoolbook convolution in Fraction."""
    if not f or not g:
        return []
    out = [Fraction(0)] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        for j, b in enumerate(g):
            out[i + j] += a * b
    return out


def naive_divmod(f: tuple, g: tuple) -> tuple[list[Fraction], list[Fraction]]:
    """Quotient and remainder of f by g != 0 by long division in Fraction."""
    quotient = [Fraction(0)] * max(len(f) - len(g) + 1, 0)
    rem = list(f)
    while rem and len(rem) >= len(g):
        k = len(rem) - len(g)
        q = rem[-1] / g[-1]
        quotient[k] = q
        for i, b in enumerate(g):
            rem[i + k] -= q * b
        while rem and rem[-1] == 0:
            rem.pop()
    return quotient, rem


def naive_taylor(f: tuple, center: Fraction, order: int) -> list[Fraction]:
    """The first `order` coefficients of (t - center)^j in f, by repeated
    Horner evaluation of the quotients in Fraction."""
    work = list(f)
    out = []
    for _ in range(order):
        acc = Fraction(0)
        quotient = []
        for c in reversed(work):
            quotient.append(acc)
            acc = acc * center + c
        out.append(acc)
        work = quotient[:0:-1]
    return out


def taylor_jet(poly: Polynomial, center, order: int) -> TruncatedSeries:
    """The first `order` Taylor coefficients of `poly` at `center`: the
    coefficients of poly(t + center), padded with zeros."""
    coeffs = coefficients(poly.shift(center))
    return TruncatedSeries(center, (coeffs + (0,) * order)[:order])


def series_reciprocal(jet: TruncatedSeries) -> TruncatedSeries:
    """The inverse of a jet modulo (t - center)^order, by solving
    sum_{i<=k} c_i out_(k-i) = [k = 0] for out_k in turn; needs c_0 != 0."""
    c = jet.coeffs
    if c[0] == 0:
        raise ZeroDivisionError("series has zero constant term")
    out = [1 / c[0]]
    for k in range(1, len(c)):
        out.append(-sum(c[i] * out[k - i] for i in range(1, k + 1)) / c[0])
    return TruncatedSeries(jet.center, out)


def kernel_ratio_by_walk(kernel: str, n: int, dn: int = 0, dt: int = 0) -> RationalFunction:
    """K_{n+dn}(t+dt) / K_n(t) by adding every root of both descriptions to
    one Counter, in doubled units (a factor t + dt - r of the top has the
    doubled root 2r - 2dt), the bottom's multiplicities negated.

    The reference for `hypergeom.kernel_ratio`, which adds only the ends of
    the runs outside their overlap.
    """
    top, bottom = factor_runs(kernel, n + dn), factor_runs(kernel, n)
    roots: Counter[int] = Counter()
    for description, sign, shift in ((top, 1, 2 * dt), (bottom, -1, 0)):
        for first, length, mult in description.runs:
            start = int(2 * first) - shift
            for i in range(length):
                roots[start + 2 * i] += sign * mult
    num = [Fraction(x, 2) for x, mult in roots.items() for _ in range(mult)]
    den = [Fraction(x, 2) for x, mult in roots.items() for _ in range(-mult)]
    return RationalFunction(
        Polynomial.from_roots(num, Fraction(top.scale, bottom.scale)), Polynomial.from_roots(den)
    )


def series_pole_jets(n: int) -> list[TruncatedSeries]:
    """The jets of R_n(t) (t+k+1/2)^3 at t = -k-1/2 for k = 0..n, by products
    of Taylor jets in Fraction.

    The reference for `pole_table("catalan", n)`: the numerator
    n! (2t+n+1) t(t-1)...(t-n+1) (t+n+1)...(t+2n) is expanded as one
    polynomial and each other pole's cube is multiplied in as a jet.
    """
    numerator = Polynomial.from_roots(
        list(range(n)) + [-(n + i) for i in range(1, n + 1)]
    ) * Polynomial([Fraction((n + 1) * math.factorial(n)), 2 * math.factorial(n)])
    jets = []
    for k in range(n + 1):
        center = Fraction(-(2 * k + 1), 2)
        den_jet = taylor_jet(Polynomial([1]), center, 3)
        for l in range(n + 1):
            if l != k:
                factor_jet = taylor_jet(Polynomial([Fraction(2 * l + 1, 2), 1]), center, 3)
                den_jet *= factor_jet * factor_jet * factor_jet
        jets.append(taylor_jet(numerator, center, 3) * series_reciprocal(den_jet))
    return jets


def series_zeta4_pole_jets(n: int) -> list[TruncatedSeries]:
    """The jets of H_n(t) (t+k)^4 at t = -k for k = 0..n, by products of
    Taylor jets in Fraction, H_n being the zeta4 family's inner function
    (2t+n) G1^2 G2^2 / (t(t+1)...(t+n))^4.

    The reference for `pole_table("zeta4", n)`: the numerator is expanded
    as one polynomial and each other pole's fourth power is multiplied in as
    a jet.
    """
    g1 = Polynomial.from_roots(range(1, n + 1))
    g2 = Polynomial.from_roots([-(n + i) for i in range(1, n + 1)])
    numerator = Polynomial([n, 2]) * g1 * g1 * g2 * g2
    jets = []
    for k in range(n + 1):
        den_jet = taylor_jet(Polynomial([1]), Fraction(-k), 4)
        for l in range(n + 1):
            if l != k:
                factor_jet = taylor_jet(Polynomial([l, 1]), Fraction(-k), 4)
                den_jet *= factor_jet * factor_jet * factor_jet * factor_jet
        jets.append(taylor_jet(numerator, Fraction(-k), 4) * series_reciprocal(den_jet))
    return jets


def termwise_zeta4_series(n: int, digits: int) -> tuple[int, mpf]:
    """(T, value) of the zeta4 derivative series by adding its terms one at a time.

    The reference for the package's closed-form sum and stop index: H_n and
    H_n' are expanded as integer polynomials and every term t = 1..T is an
    integer ratio rounded at digits+15.  T is the first multiple of 64 with
    T >= max(16, 5n+5), |H_n'| strictly decreasing over T-8..T and
    |H_n(T)| + |H_n'(T+1)| < 10^-(digits+5); the value is
    (-1)^(n+1)/6 sum_{t<=T} H_n'(t).
    """

    def derivative(p: Polynomial) -> Polynomial:
        return Polynomial([i * c for i, c in enumerate(coefficients(p))][1:])

    g1 = Polynomial.from_roots(range(1, n + 1))
    g2 = Polynomial.from_roots([-(n + i) for i in range(1, n + 1)])
    num = Polynomial([n, 2]) * g1**2 * g2**2
    den = Polynomial.from_roots([-i for i in range(n + 1)]) ** 4
    h_num, h_den, hp_num, hp_den = integer_coefficients(
        num, den, derivative(num) * den + num * derivative(den) * -1, den * den
    )[0]

    def ratio(top, bottom, t):
        return mpf(horner_int(top, t)) / mpf(horner_int(bottom, t))

    with mp.workdps(digits + 15):
        tolerance = mpf(10) ** (-(digits + 5))
        total, previous, streak, t = mpf(0), mp.inf, 0, 1
        while True:
            term = ratio(hp_num, hp_den, t)
            total += term
            streak = streak + 1 if abs(term) < previous else 0
            previous = abs(term)
            if streak >= 8 and t >= max(16, 5 * n + 5) and t % 64 == 0:
                tail = abs(ratio(h_num, h_den, t)) + abs(ratio(hp_num, hp_den, t + 1))
                if tail < tolerance:
                    return t, +((1 if n % 2 else -1) * total / 6)
            t += 1


@pytest.fixture(scope="session")
def catalan_200():
    """Catalan's constant at 200 digits from mpmath's own implementation.

    Independent of every code path in this package; anchors the oracle tests.
    """
    with mp.workdps(210):
        return +mp.catalan


@pytest.fixture(scope="session")
def zeta4_200():
    """zeta(4) = pi^4/90 at 200 digits from mpmath's pi."""
    with mp.workdps(210):
        return +(mp.pi**4 / 90)


@pytest.fixture
def no_int_str_limit():
    """Lift CPython's int->str digit limit, so that str() of any row works."""
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    yield
    sys.set_int_max_str_digits(limit)

"""Arbitrary-precision evaluation: reference constants, digit extraction from
the recurrences, the linear forms u_n C - v_n at a working precision fixed by
a proved bound, continued-fraction convergents, the double-integral
representation of the catalan linear forms, and the derivative series for the
zeta4 family, summed in closed form from the exact pole table of its inner
function (`hypergeom.zeta4_decomposition`) up to its stop index.

Reference constants, by routes independent of the recurrences (G by Chebyshev
acceleration of its alternating series, zeta(4) as pi^4/90 from mpmath's pi,
within one ulp), serve linear_form for the `integral` and `series` checks.
Digit extraction and sequences.asymptotic_report rest on a posteriori bounds
from consecutive convergents instead, so the two paths are independent checks.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import TYPE_CHECKING, NamedTuple

from .acceleration import alternating_sum, terms_for_bound
from .errors import PrecisionError, QuadratureError
from .exact import _integer_ratio, decimal_string, round_dyadic, to_mpf
from .hypergeom import factor_runs, zeta4_decomposition
from .sequences import (
    DIGITS_PER_STEP,
    RECURRENCES,
    _check_index,
    _carried,
    _scaled_pairs,
    _step_until,
    _values,  # noqa: F401  (clibench/tracer.py rebinds analytic._values)
    recurrence_coefficients,
)

if TYPE_CHECKING:
    from mpmath import mpf

#: The largest stop index of the zeta4 derivative series; PrecisionError past it.
_MAX_TERMS = 1_000_000


class DigitsResult(NamedTuple):
    """A certified decimal expansion of one of the two constants.

    `value` carries `digits` digits after the decimal point; `error_bound`
    is ten times the distance d_n between the last two convergents used,
    rounded at 37 bits to an exact Fraction over a power of two.  It exceeds
    9.99 d_n, so it is a proved upper bound on |C - v_n/u_n|, which the
    Casoratian argument (see linear_form) puts below d_n itself, and it needs
    no knowledge of C.  Both are read from unreduced values: integers over a
    scale that cancels in v_n/u_n, from one product tree whose nodes have
    dropped their content.
    """

    constant: str
    digits: int
    value: str
    n_used: int
    error_bound: Fraction


class CFConvergent(NamedTuple):
    """Depth-n value of the continued-fraction expansion, as an exact rational."""

    family: str
    n: int
    value: Fraction


# -- reference constants -------------------------------------------------------


def reference_catalan(digits: int) -> mpf:
    """Catalan's constant G = sum (-1)^l / (2l+1)^2 to `digits` digits.

    Chebyshev acceleration of the defining series over N =
    terms_for_bound(1, digits+10) terms: alternating_sum weights them by
    integers and adds them exactly in one product tree, and the reduced
    Fraction is rounded at working precision digits+15.  The terms are the
    moments of (1/4) x^(-1/2) (-log x) dx on [0, 1], a positive measure of
    mass 1, so the exact estimate is within G/d_N < 1/d_N < 10^-(digits+10)
    of G, d_N = chebyshev_scale(N).  The oracle independent of the recurrence
    route, uncached (no command asks twice), kept over mpmath's catalan (about
    as fast) as the CLI's only caller of alternating_sum, which the tracer times.
    """
    if digits < 1:
        raise ValueError("digits must be positive")
    count = terms_for_bound(1, digits + 10)
    terms = [Fraction(1, (2 * k + 1) ** 2) for k in range(count)]
    return to_mpf(alternating_sum(terms), digits + 15)


def reference_zeta4(digits: int) -> mpf:
    """zeta(4) = pi^4 / 90 with pi from mpmath at digits+15 working digits.

    mpmath's pi (mpf_pi) sums the Chudnovsky series with 20 guard bits and
    rounds once, so it is within one ulp at the working precision, where the
    fourth power is taken too.  The same pi serves beukers_integral; both are
    independent of the recurrence route and of the derivative series.
    """
    from mpmath import mp

    if digits < 1:
        raise ValueError("digits must be positive")
    with mp.workdps(digits + 15):
        return mp.pi**4 / 90


# -- digit extraction from the recurrences --------------------------------------


def _log10_above(q: Fraction | tuple[int, int]) -> int:
    """An integer in [log10 q, log10 q + 2) for q > 0, a rational or a ratio
    (num, den) in lowest terms or not: with a, b the bit lengths of its
    numerator and denominator, 2^(a-b-1) < q < 2^(a-b+1)."""
    a, b = (x.bit_length() for x in _integer_ratio(q))
    return math.ceil((a - b + 1) * math.log10(2))


def _digits_via_recurrence(family: str, digits: int) -> DigitsResult:
    if digits < 1:
        raise ValueError("digits must be positive")
    n = math.ceil(digits / DIGITS_PER_STEP[family]) + 5

    def holds(u1: int, v1: int, u0: int, v0: int) -> bool:  # 10 d_n < 10^-(digits+1)
        return 10 * abs(v0 * u1 - v1 * u0) * 10 ** (digits + 1) < u0 * u1

    n, ((u1, v1), (u, v)) = _step_until(family, n, _scaled_pairs(family, n + 1)[0], holds)
    man, exp = round_dyadic((10 * abs(v * u1 - v1 * u), u * u1), 10)
    return DigitsResult(family, digits, decimal_string((v, u), digits), n, Fraction(2) ** exp * man)


def linear_form(family: str, n: int, digits: int) -> mpf:
    """u_n C - v_n, with relative error below 10^-digits (C = G or zeta(4)).

    Write r_k = v_k/u_k and d_k = |r_{k+1} - r_k|.  The Casoratian
    W_k = u_k v_{k+1} - u_{k+1} v_k satisfies W_k = -(back_k/lead_k) W_{k-1},
    so the gaps r_{k+1} - r_k = W_k/(u_k u_{k+1}) alternate in sign, and
    u_{k+2} = (mid_k u_{k+1} + back_k u_k)/lead_k > (back_{k+1}/lead_{k+1}) u_k
    makes them shrink.  Hence

        d_n - d_{n+1} = |r_{n+2} - r_n| < |C - r_n| < d_n,

    and u_n C - v_n = u_n (C - r_n) loses fewer than -log10|r_{n+2} - r_n|
    digits to cancellation.  The working precision carries those digits plus
    a guard, so it is fixed before the evaluation.  The pairs at n and n+1
    come from one product tree as integers over a common scale S, the pair
    at n+2 from one integer step, and u_n and v_n are rounded from their
    integers over S, so no value is reduced.  At n = 0 the form is C itself.

    The `integral` and `series` checks call it: its C is the reference
    constant, so the form they compare with does not rest on the convergents.
    """
    from mpmath import mp

    _check_index(family, n)
    if digits < 1:
        raise ValueError("digits must be positive")
    rows, scale = _scaled_pairs(family, n + 1)
    ((u_after, v_after),), _ = _carried(family, n + 1, n + 2, rows, top=True)
    u, v = rows[1]
    # 1/|r_{n+2} - r_n|, each ratio over its own scale
    working = digits + _log10_above((u * u_after, abs(v_after * u - v * u_after))) + 10
    reference = reference_catalan if family == "catalan" else reference_zeta4
    with mp.workdps(working):
        form = to_mpf((u, scale), working) * reference(working) - to_mpf((v, scale), working)
    with mp.workdps(digits):
        return +form


def catalan_digits(digits: int) -> DigitsResult:
    """Catalan's constant to `digits` certified decimal places, via the recurrence."""
    return _digits_via_recurrence("catalan", digits)


def zeta4_digits(digits: int) -> DigitsResult:
    """zeta(4) to `digits` certified decimal places, via the recurrence."""
    return _digits_via_recurrence("zeta4", digits)


# -- continued fractions ---------------------------------------------------------


def cf_convergent(family: str, n: int) -> CFConvergent:
    """Depth-n convergent b_1/(a_1 + b_2/(a_2 + ...)) by exact backward recurrence.

    The expansion is the equivalence transform of the family's recurrence
    lead(k) x_{k+1} = mid(k) x_k + back(k) x_{k-1}: partial denominators
    a_m = mid(m-1), partial numerators b_m = lead(m-2) back(m-1) for m >= 2
    and b_1 = lead(0) v_1.  The depth-n value therefore equals the exact
    ratio v_n/u_n; tests assert that identity.
    """
    if n < 1:
        raise ValueError("convergent depth must be at least 1")
    lead, mid, back = zip(*(recurrence_coefficients(family, k) for k in range(n)))
    num, den = 0, 1  # the tail, one integer pair reduced once at the end
    for m in range(n, 1, -1):
        num, den = lead[m - 2] * back[m - 1] * den, mid[m - 1] * den + num
    v_1 = RECURRENCES[family].initial[1][1]
    value = Fraction(lead[0] * v_1.numerator * den, v_1.denominator * (mid[0] * den + num))
    return CFConvergent(family=family, n=n, value=value)


# -- the double-integral representation ------------------------------------------


def beukers_integral(n: int, digits: int) -> mpf:
    """The double integral over the unit square representing the linear forms:

        I_n = int int x^(n-1/2) (1-x)^n y^n (1-y)^(n-1/2) / (1-xy)^(n+1) dx dy.

    Euler's integral (DLMF 15.6.1) does the y-integral in closed form,
    B(n+1, n+1/2) 2F1(n+1, n+1; 2n+3/2; x), and Euler's transformation
    (DLMF 15.8.1) rewrites that 2F1 as (1-x)^(-1/2) 2F1(a, a; c; x) with
    a = n+1/2, c = 2n+3/2, finite at x = 1.  With x = sin^2(theta) both
    endpoint singularities go, leaving one smooth integral:

        I_n = 2 B(n+1, n+1/2) 4^(-n) int_0^(pi/2) f(theta) dtheta,
        f(theta) = (4x(1-x))^n 2F1(a, a; c; x).

    f has one peak, of width about 1/sqrt(n), near sin^2(theta) = 1/phi
    (phi the golden ratio): there x = y = 1/phi maximises
    x(1-x)y(1-y)/(1-xy), at phi^-5, the decay rate of the linear forms.
    The height of f moves exponentially with n (about 10^30 at n = 200),
    but mpmath's stop test and error estimate are absolute, and the estimate
    is capped at 1.  So f is divided by its value at that point, which keeps
    the integrand of order one and the estimate meaningful, and the interval
    is split there so that the nodes cluster on the peak.  The result is a
    quadrature estimate: QuadratureError is raised when mpmath's error
    estimate exceeds 10^-(digits+2), but that estimate is not a proved bound.

    Relation to the sequence pairs: I_n = 8 (-1)^n (u_n G - v_n), i.e. the
    linear form is (-1)^n/8 times I_n.  The factor 1/4 sometimes printed in
    its place is excluded exactly at n = 0, where the first two positive
    terms of the integrand's series expansion already give I_0 > 4 + 8/9 > 4 G.
    """
    from mpmath import mp, mpf

    if n < 0:
        raise ValueError("index must be nonnegative")
    if not 1 <= digits <= 50:
        raise ValueError("digits must lie in 1..50")
    with mp.workdps(digits + 10):
        a = n + mpf(1) / 2
        c = 2 * n + mpf(3) / 2

        def f(theta):
            x = mp.sin(theta) ** 2
            return (4 * x * (1 - x)) ** n * mp.hyp2f1(a, a, c, x)

        crest = mp.asin(mp.sqrt(1 / mp.phi))
        peak = f(crest)
        value, err = mp.quad(
            lambda theta: f(theta) / peak,
            [0, crest, mp.pi / 2],
            method="gauss-legendre",
            error=True,
        )
        if err > mpf(10) ** (-(digits + 2)):
            raise QuadratureError(
                f"quadrature did not reach {digits} digits "
                f"(error estimate {mp.nstr(err, 3)})"
            )
        return +(2 * mp.beta(n + 1, a) * peak * value / 4**n)


# -- the derivative series for the zeta4 family ----------------------------------


def _zeta4_stop_index(n: int, digits: int) -> int:
    """The index T at which the derivative series is cut.

    T is the first multiple of 64 with max(16, 5n+5) <= T <= _MAX_TERMS at which
    |H_n(T)| + |H_n'(T+1)| < 10^-(digits+5) and |H_n'| strictly decreases
    over T-8..T: the integral comparison bound for an eventually monotone
    single-signed tail.  Only those points are evaluated, each exact value
    rounded once at digits+15: |H_n(T)| first, H_n'(T+1) where that alone
    passes, and the run of decrease where the sum passes.
    """
    from mpmath import mp, mpf

    working = digits + 15
    inner = factor_runs("zeta4", n)  # H_n

    def size(value: Fraction) -> mpf:
        return abs(to_mpf(value, working))

    def slope(t: int) -> Fraction:  # H_n'(t)
        return inner.jet(t, 2).coeffs[1]

    with mp.workdps(working):
        tolerance = mpf(10) ** (-(digits + 5))
        first = -(-max(16, 5 * n + 5) // 64) * 64
        for t in range(first, _MAX_TERMS + 1, 64):
            height = size(inner.value(t))
            if height < tolerance and height + size(slope(t + 1)) < tolerance:
                slopes = [size(slope(s)) for s in range(t - 8, t + 1)]
                if all(a > b for a, b in zip(slopes, slopes[1:])):
                    return t
    raise PrecisionError(
        f"derivative series did not reach {digits} digits within {_MAX_TERMS} terms"
    )


def zeta4_series(n: int, digits: int) -> mpf:
    """The derivative series whose value is u_n zeta(4) - v_n for the zeta4 family:

        (-1)^(n+1)/6 * sum_{t>=1} H_n'(t),

    with H_n the inner rational function (degree gap 3, so H_n' decays like
    t^-4), cut at the stop index T of `_zeta4_stop_index`: the value is the
    partial sum S_T = sum_{t<=T} H_n'(t) times (-1)^(n+1)/6, to within
    10^-(digits+15).  That tolerance is absolute, whatever the size of
    u_n zeta(4) - v_n, so the digits are capped at 10 and the value carries
    fewer relative digits as n grows.

    S_T is summed in closed form from the exact pole table B_jk of H_n
    (`hypergeom.zeta4_decomposition`), not term by term.  With
    c_jk = -(4-j) B_jk and s = 5-j,

        S_T = sum_{j,k} c_jk (H_(T+k)^(s) - H_k^(s))
            = sum_s zeta[s-2] zeta(s) + rational - sum_{j,k} c_jk zeta(s, T+k+1),

    the full sum less its tail, with one Hurwitz zeta value per s and the
    rest exact.  Each H_m^(s) is below zeta(2) < 2, so no term of the full
    sum exceeds 2 sum |c_jk| and the tail terms are far smaller: at
    digits + 15 + log10(2 sum |c_jk|) + 5 working digits the few roundings
    stay below 10^-(digits+15).  The precision is fixed before evaluating.
    """
    from mpmath import mp, mpf

    if n < 0:
        raise ValueError("index must be nonnegative")
    if not 1 <= digits <= 10:
        raise ValueError("digits must lie in 1..10 (terms decay only like t^-4)")
    stop = _zeta4_stop_index(n, digits)
    parts = zeta4_decomposition(n)
    weights = [[-(4 - j) * b for b in row] for j, row in enumerate(parts.B)]
    mass = 2 * sum(abs(c) for row in weights for c in row)
    working = digits + 20 + _log10_above(mass)
    with mp.workdps(working):
        full = to_mpf(parts.rational, working) + sum(
            to_mpf(c, working) * mp.zeta(s) for s, c in enumerate(parts.zeta, 2)
        )
        tail = mpf(0)
        for j, row in enumerate(weights):
            s = 5 - j
            hurwitz = mp.zeta(s, stop + 1)  # zeta(s, T+k+1), k = 0, 1, ...
            for k, c in enumerate(row):
                tail += to_mpf(c, working) * hurwitz
                hurwitz -= mpf(stop + k + 1) ** -s
        value = (1 if n % 2 == 1 else -1) * (full - tail) / 6
    with mp.workdps(digits + 15):
        return +value

"""The rational kernel R_n, its partial-fraction table, and the linear-form
coefficients it produces.

For each n the kernel is

    R_n(t) = n! (2t+n+1) * t(t-1)...(t-n+1) * (t+n+1)...(t+2n)
             / ((t+1/2)(t+3/2)...(t+n+1/2))^3,

a proper rational function whose poles are the half-integers -k-1/2 for
k = 0..n, each of order at most 3.  Writing

    R_n(t) = sum_{j=0}^{2} sum_{k=0}^{n} A_jk / (t+k+1/2)^(3-j),

the numbers A_jk are the order-3 jet of the pole-cleared function
C_k(t) = R_n(t) (t+k+1/2)^3 at t = -k-1/2.  C_k is a product of linear
factors, so its jet in x = t+k+1/2 is C_k(-k-1/2) (1 + s1 x + (s1^2-s2) x^2/2),
where s_j sums m/offset^j over the factors (offset from the pole, m the
multiplicity).  The offsets are runs of consecutive half-integers and
integers, so each s_j is a difference of prefix tables: the table costs O(n)
Fraction operations in all, and the kernel is never built for it.

Alternating sums of the table columns produce the coefficients
(U, U', U'', V) for which the alternating series F_n = sum_t (-1)^t R_n(t)
equals U' G - V with U = U'' = 0, G being Catalan's constant.  That identity
is the cross-check between this module and the recurrence-generated
sequences: U'_n = 8 u_n and V_n = 8 v_n.  F_n itself has one numerical
route, `f_numeric`, whose accelerated term count is proved from the table.

The zeta4 family gets the same treatment one order higher: its inner
function H_n(t) = (2t+n) G1^2 G2^2 / (t(t+1)...(t+n))^4 has poles of order
at most 4 at t = -k, and `zeta4_decomposition` reads its table B_jk off the
closed-form jets (`exp_jet`, which both tables use) and sums
sum_{t>=1} H_n'(t) into exact coefficients of zeta(2..5) and a rational
part: the exact second route to u_n zeta(4) - v_n.
"""

from __future__ import annotations

import math
import threading
from fractions import Fraction
from typing import TYPE_CHECKING, NamedTuple, Sequence

from .acceleration import alternating_sum, terms_for_bound
from .exact import Polynomial, RationalFunction, TruncatedSeries, lcm_upto, to_mpf

if TYPE_CHECKING:
    from mpmath import mpf


class KernelParts(NamedTuple):
    """The kernel R_n together with its building blocks.

    P1 and P2 are the integer-valued falling/rising factorial polynomials
    scaled by 1/n!; Q is n! over the half-integer Pochhammer product, so that
    R = (2t+n+1) P1 P2 Q^3.  Q and R are unreduced pairs: R's denominator is
    the cubed product for every n, though for even n one factor cancels.
    """

    n: int
    P1: Polynomial
    P2: Polynomial
    Q: RationalFunction
    R: RationalFunction


class PartialFractionTable(NamedTuple):
    """Exact coefficients A[j][k] of the pole expansion of R_n.

    Row j (0, 1, 2) holds the coefficients of 1/(t+k+1/2)^(3-j) for
    k = 0..n.
    """

    n: int
    A: tuple[tuple[Fraction, ...], ...]

    def entry(self, j: int, k: int) -> Fraction:
        return self.A[j][k]


class CoefficientQuadruple(NamedTuple):
    """Linear-form coefficients assembled from the partial-fraction table."""

    n: int
    U: Fraction
    Uprime: Fraction
    Udoubleprime: Fraction
    V: Fraction


def _half(k: int) -> Fraction:
    """The pole location -k-1/2."""
    return Fraction(-(2 * k + 1), 2)


def _pole_factor(k: int) -> Polynomial:
    """The monic linear factor (t + k + 1/2)."""
    return Polynomial([Fraction(2 * k + 1, 2), Fraction(1)])


_kernel_lock = threading.Lock()
_kernel_cache: dict[int, KernelParts] = {}


def build_kernel(n: int) -> KernelParts:
    """Exact construction of R_n and its factors, memoized per n."""
    if n < 0:
        raise ValueError("kernel index must be nonnegative")
    with _kernel_lock:
        cached = _kernel_cache.get(n)
    if cached is not None:
        return cached

    fact = math.factorial(n)
    falling = Polynomial.from_roots(range(n))                # t(t-1)...(t-n+1)
    rising = Polynomial.from_roots([-(n + i) for i in range(1, n + 1)])
    p1 = falling * Fraction(1, fact)
    p2 = rising * Fraction(1, fact)
    poch = Polynomial.from_roots([_half(k) for k in range(n + 1)])
    q = RationalFunction(fact, poch)
    two_t = Polynomial([Fraction(n + 1), Fraction(2)])     # 2t + n + 1
    r = RationalFunction(falling * rising * two_t * fact, poch**3)

    parts = KernelParts(n=n, P1=p1, P2=p2, Q=q, R=r)
    with _kernel_lock:
        _kernel_cache[n] = parts
    return parts


def q_residues(n: int) -> list[Fraction]:
    """Residues of Q_n at its poles: value of Q_n(t)(t+k+1/2) at t = -k-1/2.

    Evaluates the cleared product directly; the result is the alternating
    binomial (-1)^k C(n, k), which tests assert independently.
    """
    if n < 0:
        raise ValueError("index must be nonnegative")
    fact = math.factorial(n)
    out = []
    for k in range(n + 1):
        prod = 1
        for l in range(n + 1):
            if l != k:
                prod *= l - k
        out.append(Fraction(fact, prod))
    return out


def _prefix_tables(points: range, depth: int) -> tuple[list[int], list[list[Fraction]]]:
    """Entry m of the first list is the product of the first m integer
    points; entry m of row j-1 (j = 1..depth) is the sum of 1/x^j over them."""
    prod, sums = [1], [[Fraction(0)] for _ in range(depth)]
    for x in points:
        prod.append(prod[-1] * x)
        inverse = Fraction(1, x)
        power = Fraction(1)
        for row in sums:
            power *= inverse
            row.append(row[-1] + power)
    return prod, sums


def _pole_tables(n: int) -> tuple[tuple, tuple]:
    """Prefix tables over the odd numbers 2i+1 (i < 2n) and over 1..n."""
    return _prefix_tables(range(1, 4 * n, 2), 2), _prefix_tables(range(1, n + 1), 2)


def exp_jet(
    center: Fraction, value: Fraction, power_sums: Sequence[Fraction], order: int
) -> TruncatedSeries:
    """Order-`order` jet at the center of a product of factors (t-r)^m with
    the given value there and power sums p_j = sum m / (center-r)^j, for
    j = 1..order-1.

    The product is value * exp(sum_j (-1)^(j+1) p_j x^j / j) in x = t-center,
    and e = exp(a) satisfies e' = a' e, so its coefficients follow from
    e_0 = 1 and e_m = (1/m) sum_{i=1..m} (-1)^(i+1) p_i e_(m-i).
    """
    e = [Fraction(1)]
    for m in range(1, order):
        e.append(
            sum((-1) ** (i + 1) * power_sums[i - 1] * e[m - i] for i in range(1, m + 1)) / m
        )
    return TruncatedSeries(center, [value * c for c in e])


def _closed_form_jet(n: int, k: int, tables) -> TruncatedSeries:
    """pole_jet(n, k) for 0 <= k <= n in O(1) Fractions from `_pole_tables(n)`."""
    (odd, (h1, h2)), (f, (w1, w2)) = tables
    center = _half(k)
    # offsets from the center: t - i (i < n) at -(2(k+i)+1)/2; t + n + i
    # (1 <= i <= n) at (2j+1)/2 for n-k <= j < 2n-k; t + l + 1/2 at l - k
    value = Fraction(
        (-1) ** n * f[n] * (odd[k + n] // odd[k]) * (odd[2 * n - k] // odd[n - k]),
        4**n,
    )
    s1 = 2 * (h1[2 * n - k] - h1[n - k] - h1[k + n] + h1[k])
    s2 = 4 * (h2[2 * n - k] - h2[n - k] + h2[k + n] - h2[k])
    gap = n - 2 * k  # 2t + n + 1 = 2 (t - center) + gap
    if gap:
        numerator = exp_jet(
            center, value * gap, (s1 + Fraction(2, gap), s2 + Fraction(4, gap * gap)), 3
        )
    else:
        # the middle pole of even n: 2t + n + 1 = 2x shifts the jet one place
        numerator = TruncatedSeries(center, [0, 2 * value, 2 * value * s1])
    reciprocal = exp_jet(
        center,
        Fraction(1, ((-1) ** k * f[k] * f[n - k]) ** 3),
        (-3 * (w1[n - k] - w1[k]), -3 * (w2[n - k] + w2[k])),
        3,
    )
    return numerator * reciprocal


def pole_jet(n: int, k: int) -> TruncatedSeries:
    """Exact order-3 jet of C_k(t) = R_n(t) (t+k+1/2)^3 at t = -k-1/2.

    Coefficient j of the jet is A_jk, in closed form (see the module
    docstring): the product of the jet of the numerator factors and the jet
    of the reciprocal of the other poles' factors.  For even n the factor
    2t+n+1 vanishes at the middle pole k = n/2, which shifts the jet by one
    place (A_0k = 0).  For k outside 0..n, C_k has a triple zero at the
    center and the jet vanishes identically.
    """
    if n < 0:
        raise ValueError("index must be nonnegative")
    if k < 0 or k > n:
        return TruncatedSeries.constant(0, _half(k), 3)
    return _closed_form_jet(n, k, _pole_tables(n))


_table_lock = threading.Lock()
_table_cache: dict[int, PartialFractionTable] = {}


def partial_fractions(n: int) -> PartialFractionTable:
    """The exact 3 x (n+1) coefficient table of the pole expansion of R_n.

    Column k is the closed-form jet `pole_jet(n, k)`; the prefix tables are
    built once for all n+1 poles, so the table costs O(n) Fraction operations
    and no series product beyond one per pole.
    """
    if n < 0:
        raise ValueError("index must be nonnegative")
    with _table_lock:
        cached = _table_cache.get(n)
    if cached is not None:
        return cached
    tables = _pole_tables(n)
    jets = [_closed_form_jet(n, k, tables) for k in range(n + 1)]
    table = PartialFractionTable(
        n=n,
        A=tuple(tuple(jet.coefficient(j) for jet in jets) for j in range(3)),
    )
    with _table_lock:
        _table_cache[n] = table
    return table


def reconstruction(table: PartialFractionTable) -> RationalFunction:
    """Reassemble sum_{j,k} A_jk / (t+k+1/2)^(3-j) as one rational function."""
    n = table.n
    factors = [_pole_factor(k) for k in range(n + 1)]
    cubes = [f**3 for f in factors]
    # prefix[i] = product of cubes[:i], suffix[i] = product of cubes[i+1:]
    prefix = [Polynomial.constant(1)]
    for c in cubes:
        prefix.append(prefix[-1] * c)
    suffix = [Polynomial.constant(1)] * (n + 2)
    for i in range(n, -1, -1):
        suffix[i] = suffix[i + 1] * cubes[i]
    num = Polynomial()
    for k in range(n + 1):
        local = Polynomial()
        for j in range(3):
            local = local + factors[k] ** j * table.A[j][k]
        num = num + local * (prefix[k] * suffix[k + 1])
    return RationalFunction(num, prefix[n + 1])


def beta_partial_sum(k: int, power: int) -> Fraction:
    """Exact partial sum sum_{l=0}^{k-1} (-1)^l / (2l+1)^power."""
    total = Fraction(0)
    for l in range(k):
        term = Fraction(1, (2 * l + 1) ** power)
        total += term if l % 2 == 0 else -term
    return total


def coefficient_quadruple(n: int) -> CoefficientQuadruple:
    """Alternating column sums of the table, with exact inner beta partial sums
    carried along k in one pass.

    U  = 8 sum (-1)^k A_0k        (coefficient that multiplies beta(3))
    U' = 4 sum (-1)^k A_1k        (coefficient of beta(2) = G)
    U''= 2 sum (-1)^k A_2k        (coefficient of beta(1))
    V  = sum_j 2^(3-j) sum_k (-1)^k A_jk sum_{l<k} (-1)^l/(2l+1)^(3-j)
    """
    table = partial_fractions(n)
    sums = [Fraction(0)] * 3    # sum_k (-1)^k A_jk
    inner = [Fraction(0)] * 3   # sum_k (-1)^k A_jk beta_partial_sum(k, 3-j)
    beta = [Fraction(0)] * 3    # beta_partial_sum(k, 3-j), carried along k
    for k in range(n + 1):
        sign = 1 if k % 2 == 0 else -1
        for j in range(3):
            term = sign * table.A[j][k]
            sums[j] += term
            inner[j] += term * beta[j]
            beta[j] += Fraction(sign, (2 * k + 1) ** (3 - j))
    return CoefficientQuadruple(
        n=n,
        U=8 * sums[0],
        Uprime=4 * sums[1],
        Udoubleprime=2 * sums[2],
        V=sum(2 ** (3 - j) * inner[j] for j in range(3)),
    )


# -- the zeta4 family: the inner function H_n -----------------------------------


class Zeta4Decomposition(NamedTuple):
    """The pole expansion of the zeta4 family's inner function and the exact
    sum of its derivative over t >= 1.

    B[j][k] (j = 0..3, k = 0..n) is the coefficient of 1/(t+k)^(4-j).  With
    c_jk = -(4-j) B[j][k] and s = 5-j,

        sum_{t>=1} H_n'(t) = sum_{j,k} c_jk (zeta(s) - H_k^(s))
                           = sum_s zeta[s-2] zeta(s) + rational,

    where zeta[s-2] = sum_k c_jk is the coefficient of zeta(s), s = 2..5, and
    rational = -sum_{j,k} c_jk H_k^(s), H_k^(s) = sum_{m<=k} 1/m^s.
    """

    n: int
    B: tuple[tuple[Fraction, ...], ...]
    zeta: tuple[Fraction, ...]
    rational: Fraction


def _zeta4_pole_jet(n: int, k: int, f: list[int], h: list[list[Fraction]]) -> TruncatedSeries:
    """Order-4 jet of H_n(t) (t+k)^4 at t = -k, 0 <= k <= n, from the prefix
    tables `f, h = _prefix_tables(range(1, 2n+1), depth)`, depth >= 3."""
    center = Fraction(-k)
    # offsets from the center: t - i (1 <= i <= n) at -(k+i), squared;
    # t + n + i (1 <= i <= n) at n-k+i, squared; t + i (i != k) at i-k, to -4
    value = Fraction((f[k + n] * f[2 * n - k]) ** 2, (f[k] * f[n - k]) ** 6)
    sums = [
        2 * (-1) ** j * (h[j - 1][k + n] - h[j - 1][k])
        + 2 * (h[j - 1][2 * n - k] - h[j - 1][n - k])
        - 4 * (h[j - 1][n - k] + (-1) ** j * h[j - 1][k])
        for j in (1, 2, 3)
    ]
    gap = n - 2 * k  # 2t + n = 2 (t - center) + gap
    if gap:
        return exp_jet(
            center, value * gap, [p + Fraction(2, gap) ** j for j, p in enumerate(sums, 1)], 4
        )
    # the middle pole of even n: 2t + n = 2x shifts the jet one place
    rest = exp_jet(center, value, sums, 3)
    return TruncatedSeries(center, [0] + [2 * c for c in rest.coeffs])


def zeta4_decomposition(n: int) -> Zeta4Decomposition:
    """The exact 4 x (n+1) pole table of the zeta4 family's inner function

        H_n(t) = (2t+n) G1^2 G2^2 / (t(t+1)...(t+n))^4,
        G1 = (t-1)...(t-n),  G2 = (t+n+1)...(t+2n),

    and the zeta and rational coefficients of sum_{t>=1} H_n'(t).

    H_n is proper (degree gap 3) with poles of order 4 at t = -k, k = 0..n,
    except the middle pole of even n, of order 3, where 2t+n vanishes.
    Column k is the order-4 jet of the pole-cleared product H_n(t) (t+k)^4,
    a product of linear factors, so `exp_jet` gives it from the power sums
    of its offsets, each a difference of the prefix sums H_m^(j) over
    1..2n: the table costs O(n) Fraction operations, as the catalan one
    does.  The identity (-1)^(n+1)/6 sum_t H_n'(t) = u_n zeta(4) - v_n of
    the zeta4 family means zeta[0], zeta[1] and zeta[3] vanish,
    (-1)^(n+1) zeta[2]/6 = u_n and (-1)^(n+1) rational/6 = -v_n; tests
    assert it exactly.
    """
    if n < 0:
        raise ValueError("index must be nonnegative")
    f, h = _prefix_tables(range(1, 2 * n + 1), 5)
    jets = [_zeta4_pole_jet(n, k, f, h) for k in range(n + 1)]
    table = tuple(tuple(jet.coefficient(j) for jet in jets) for j in range(4))
    zeta = [Fraction(0)] * 4
    rational = Fraction(0)
    for j, row in enumerate(table):
        s = 5 - j
        for k, b in enumerate(row):
            c = -(4 - j) * b
            zeta[s - 2] += c
            rational -= c * h[s - 1][k]
    return Zeta4Decomposition(n=n, B=table, zeta=tuple(zeta), rational=rational)


# -- auxiliary integrality checks ---------------------------------------------


def _is_integer(q: Fraction) -> bool:
    return q.denominator == 1


def check_arith_lemmas(n: int) -> bool:
    """Exact verification of the auxiliary integrality statements for one n.

    Over the window k = -2n..2n:
      * 2^(2n) P(-k-1/2) is an integer for P in {P1, P2};
      * 2^(2n) D_n^j (1/j!) P^(j)(-k-1/2) is an integer for j = 1, 2.
    Over k = 0..n:
      * the j-th jet coefficient of Q_n(t)(t+k+1/2) at the pole equals
        (-1)^(j-1) sum_{l != k} a_l / (l-k)^j, and D_n^j times it is an
        integer, for j = 1, 2;
      * 2^(4n) D_n^j A_jk is an integer for j = 0, 1, 2.
    """
    if n < 0:
        raise ValueError("index must be nonnegative")
    kern = build_kernel(n)
    table = partial_fractions(n)
    residues = q_residues(n)
    d_n = lcm_upto(n)
    two_2n = 2 ** (2 * n)
    two_4n = 2 ** (4 * n)

    for poly in (kern.P1, kern.P2):
        for k in range(-2 * n, 2 * n + 1):
            jet = TruncatedSeries.from_polynomial(poly, _half(k), 3).coeffs
            if not _is_integer(two_2n * jet[0]):
                return False
            for j in (1, 2):
                if not _is_integer(two_2n * d_n**j * jet[j]):
                    return False

    fact = math.factorial(n)
    for k in range(n + 1):
        center = _half(k)
        den_jet = TruncatedSeries.constant(1, center, 3)
        for l in range(n + 1):
            if l != k:
                den_jet = den_jet * TruncatedSeries.from_polynomial(
                    _pole_factor(l), center, 3
                )
        cleared = TruncatedSeries.constant(fact, center, 3) * den_jet.reciprocal()
        for j in (1, 2):
            expected = Fraction(0)
            for l in range(n + 1):
                if l != k:
                    expected += residues[l] / Fraction(l - k) ** j
            expected *= (-1) ** (j - 1)
            if cleared.coefficient(j) != expected:
                return False
            if not _is_integer(d_n**j * cleared.coefficient(j)):
                return False
        for j in range(3):
            if not _is_integer(two_4n * d_n**j * table.A[j][k]):
                return False
    return True


# -- numerical evaluation of the alternating kernel sum -------------------------


def f_numeric(n: int, digits: int) -> mpf:
    """The alternating sum F_n = sum_{t>=0} (-1)^t R_n(t), within 10^-digits.

    The raw series converges only polynomially (the degree gap of R_n is
    n+2), so it is accelerated.  R_n(t) = sum A_jk / (t+k+1/2)^(3-j) is the
    moment sequence of a signed measure on [0, 1] whose total variation is at
    most M_n = sum |A_jk| (k+1/2)^-(3-j), exactly from the partial-fraction
    table, so N = terms_for_bound(M_n, digits+5) exact terms bring the
    Chebyshev estimate within 10^-(digits+5) of F_n (Cohen, Rodriguez Villegas
    and Zagier 2000).  It is rounded once, at digits+15.
    """
    if n < 0:
        raise ValueError("index must be nonnegative")
    if digits < 1:
        raise ValueError("digits must be positive")
    mass = sum(
        abs(a) / Fraction(2 * k + 1, 2) ** (3 - j)
        for j, row in enumerate(partial_fractions(n).A)
        for k, a in enumerate(row)
    )
    kernel = build_kernel(n).R
    count = terms_for_bound(mass, digits + 5)
    return to_mpf(alternating_sum([kernel(t) for t in range(count)]), digits + 15)
